// Package seededrand forbids global and wall-clock-derived randomness.
// Every random draw in this repository must flow from an explicitly seeded
// source whose seed derives from run coordinates (experiment, seed index,
// shard) — the rule that makes sweeps reproducible cell by cell. The
// package-level math/rand functions draw from a shared, racily-advanced
// global source, and time-seeded sources differ on every run; both are
// silent determinism leaks.
package seededrand

import (
	"go/ast"
	"go/types"

	"hybridsched/internal/analyzers/lintkit"
)

// allowedConstructors are the math/rand entry points that take an explicit
// seed or source and are therefore fine: rand.New(rand.NewSource(seed)) is
// the approved idiom.
var allowedConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand
	"NewPCG":     true, // math/rand/v2, explicit seed words
	"NewChaCha8": true, // math/rand/v2, explicit seed
}

// entropySources are call targets that smuggle ambient entropy into a seed
// expression: pkg path -> function names.
var entropySources = map[string]map[string]bool{
	"time": {"Now": true},
	"os":   {"Getpid": true, "Getppid": true},
}

// Analyzer flags unseeded or ambient-entropy randomness anywhere in the
// module (tests included: a test that draws from the global source is
// nondeterministic under -count=2 exactly like engine code).
var Analyzer = &lintkit.Analyzer{
	Name:   "seededrand",
	Waiver: "entropy",
	Doc: "forbid global math/rand functions and wall-clock-seeded sources\n\n" +
		"All randomness must flow from rand.New(rand.NewSource(seed)) with a\n" +
		"coordinate-derived seed (see internal/runner); the package-level\n" +
		"math/rand functions share racy global state, and time-seeded sources\n" +
		"change on every run.",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Package-level functions only: methods on an explicit *Rand are
			// the approved pattern, and their receiver carries the seed.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !allowedConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the shared global source; use rand.New(rand.NewSource(seed)) with a coordinate-derived seed, or waive with //schedlint:entropy <reason>",
						fn.Pkg().Path(), fn.Name())
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(),
					"crypto/rand.%s is ambient entropy; simulation randomness must come from a seeded deterministic source, or waive with //schedlint:entropy <reason>",
					fn.Name())
			}
			return true
		})
	}

	// Second pass: approved constructors fed from ambient entropy, the
	// classic rand.NewSource(time.Now().UnixNano()).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			p := fn.Pkg().Path()
			if (p != "math/rand" && p != "math/rand/v2") || !allowedConstructors[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if src := entropyIn(pass, arg); src != "" {
					pass.Reportf(call.Pos(),
						"%s seeds %s.%s with ambient entropy; derive the seed from run coordinates instead, or waive with //schedlint:entropy <reason>",
						src, p, fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// entropyIn reports the first ambient-entropy call found in expr ("" if
// none), e.g. "time.Now".
func entropyIn(pass *lintkit.Pass, expr ast.Expr) string {
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if names, ok := entropySources[fn.Pkg().Path()]; ok && names[fn.Name()] {
			found = fn.Pkg().Path() + "." + fn.Name()
			return false
		}
		return true
	})
	return found
}
