package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// SeedSplit flags arithmetic derivation of RNG seeds — seed+i, seed^i,
// seed*k and friends — anywhere outside internal/xrand, the one
// blessed derivation point. Additive derivation produces correlated
// streams (channel i seeded seed+i overlaps channel i+1's stream
// seeded seed+i+1 shifted by one draw) and broke cross-channel
// independence once already (two multi-channel runs whose seeds differed
// by the derivation constant shared channel streams). Derive child
// streams with xrand.Split, which mixes the parent state through
// SplitMix64 instead.
var SeedSplit = &Analyzer{
	Name: "seedsplit",
	Doc: "forbid arithmetic seed derivation (seed+i, seed^i, seed*k) outside " +
		"xrand.Split; derive child RNG streams by splitting the parent",
	Run: runSeedSplit,
}

// seedArithOps are the binary/compound operators that count as
// derivation when applied to a seed. Comparisons are fine — testing a
// seed is not deriving one.
var seedArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.AND: true, token.OR: true, token.XOR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true, token.AND_ASSIGN: true,
	token.OR_ASSIGN: true, token.XOR_ASSIGN: true, token.SHL_ASSIGN: true,
	token.SHR_ASSIGN: true, token.AND_NOT_ASSIGN: true,
}

func runSeedSplit(pass *Pass) error {
	if PkgPathBase(pass.Pkg.Path()) == "xrand" {
		return nil // the designated derivation point implements Split itself
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if !seedArithOps[n.Op] {
					return true
				}
				operand := ""
				switch {
				case isSeedExpr(n.X):
					operand = seedExprName(n.X)
				case isSeedExpr(n.Y):
					operand = seedExprName(n.Y)
				default:
					return true
				}
				if t := pass.TypesInfo.TypeOf(n); t == nil || !isInteger(t) {
					return true // float/string "seed" math is not an RNG stream
				}
				if !pass.Suppressed(n.OpPos, NondeterminismOK) {
					pass.Reportf(n.OpPos, "arithmetic seed derivation %s%s…: child streams correlate — use xrand.Split", operand, n.Op)
				}
			case *ast.AssignStmt:
				if !seedArithOps[n.Tok] {
					return true
				}
				for _, l := range n.Lhs {
					if isSeedExpr(l) && !pass.Suppressed(n.TokPos, NondeterminismOK) {
						if t := pass.TypesInfo.TypeOf(l); t != nil && isInteger(t) {
							pass.Reportf(n.TokPos, "arithmetic seed derivation %s%s…: child streams correlate — use xrand.Split", seedExprName(l), n.Tok)
						}
					}
				}
			case *ast.IncDecStmt:
				if isSeedExpr(n.X) && !pass.Suppressed(n.TokPos, NondeterminismOK) {
					pass.Reportf(n.TokPos, "arithmetic seed derivation %s%s: child streams correlate — use xrand.Split", seedExprName(n.X), n.Tok)
				}
			}
			return true
		})
	}
	return nil
}

// isSeedExpr reports whether the expression is a bare identifier or
// field selection whose name contains "seed" (any case). Calls like
// len(seeds) deliberately do not match — only direct seed values do.
func isSeedExpr(e ast.Expr) bool {
	return strings.Contains(strings.ToLower(seedExprName(e)), "seed")
}

func seedExprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
