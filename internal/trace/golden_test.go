package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenChurnDigest is the SHA-256 of GenerateChurn's event stream (and
// Peak, FinalActive) for goldenChurnConfig. Changing it is a deliberate
// act: every replayed benchmark and test workload derives from this
// generator.
const goldenChurnDigest = "833a5128ab8c44a339c7cc2840368ffbe08c4c3bc1f1031e8c34cbcfc35775eb"

func goldenChurnConfig() ChurnConfig {
	return ChurnConfig{
		Horizon:      2000,
		ArrivalRate:  3,
		MeanLifetime: 150,
		Channels:     6,
		ZipfS:        0.9,
		SwitchRate:   0.02,
		Seed:         7,
	}
}

func TestGoldenChurnDigest(t *testing.T) {
	w, err := GenerateChurn(goldenChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, e := range w.Events {
		put(e.Stage)
		put(int(e.Kind))
		put(e.PeerID)
		put(e.Channel)
	}
	put(w.Peak)
	put(w.FinalActive)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenChurnDigest {
		t.Fatalf("churn digest %s (%d events), want %s", got, len(w.Events), goldenChurnDigest)
	}
}
