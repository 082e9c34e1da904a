package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---- shared root sets -------------------------------------------------

// stepRootNames are the methods that advance simulation time: anything
// they (transitively) call runs on the per-cycle critical path, where
// scheduling must stay deterministic and host-side concurrency is the
// engine's exclusive business.
var stepRootNames = map[string]bool{
	"Step":              true,
	"StepN":             true,
	"StepCycle":         true,
	"StepNodeRangeInfo": true,
	"SkipTo":            true,
}

// digestRoot selects functions whose output must be bit-identical
// across stepping modes and engine shard counts: digest computations,
// hook callbacks (run in a defined order and therefore part of the
// observable trace), and anything marked //jm:trace-root.
func (g *callGraph) digestRoot(fn *funcNode) bool {
	if fn.hookArg {
		return true
	}
	if fn.obj != nil && (fn.obj.Name() == "StateDigest" || fn.obj.Name() == "Digest") {
		return true
	}
	return fn.annotated(g.prog, "trace-root")
}

// stepRoot selects functions on the per-cycle critical path: the
// stepping entry points plus every registered hook (hooks run inside
// the step loop).
func (g *callGraph) stepRoot(fn *funcNode) bool {
	if fn.hookArg {
		return true
	}
	return fn.obj != nil && stepRootNames[fn.obj.Name()] && isMethod(fn.obj)
}

func isMethod(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// digestReachable / stepReachable memoize the two closures.
func (g *callGraph) digestReachable() map[*funcNode]bool {
	if g.digestReach == nil {
		g.digestReach = g.reachable(g.digestRoot)
	}
	return g.digestReach
}

func (g *callGraph) stepReachable() map[*funcNode]bool {
	if g.stepReach == nil {
		g.stepReach = g.reachable(g.stepRoot)
	}
	return g.stepReach
}

// inspectPkg walks every function body of pkg that is in the given
// reachable set, handing each node to visit along with its funcNode.
func inspectReachable(prog *Program, pkg *Package, reach map[*funcNode]bool, visit func(fn *funcNode, n ast.Node)) {
	g := prog.CallGraph()
	for _, fn := range g.all {
		if fn.pkg != pkg || !reach[fn] {
			continue
		}
		body := fn.body()
		if body == nil {
			continue
		}
		fn := fn
		ast.Inspect(body, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			// Nested literals are their own graph nodes; they are
			// visited when their own node is in the set.
			if _, ok := n.(*ast.FuncLit); ok && n != fn.node() {
				return false
			}
			visit(fn, n)
			return true
		})
	}
}

// ---- JML001: wall-clock reads ----------------------------------------

// WallclockAnalyzer flags time.Now / time.Since / time.Until in
// non-test simulation code. Wall-clock time feeding simulation state is
// the canonical determinism leak. No internal/ package reads the wall
// clock today; a host-time measurement that never feeds back into the
// simulation (a host track in internal/obs, say) may, by annotating the
// read //jm:wallclock <rationale>.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Code: "JML001",
	Doc:  "time.Now/Since/Until requires a //jm:wallclock rationale outside tests",
	Run: func(prog *Program, pkg *Package, report func(ast.Node, string)) {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				switch obj.Name() {
				case "Now", "Since", "Until":
				default:
					return true
				}
				if pkg.suppressed(prog.Fset, sel, "wallclock") {
					return true
				}
				report(sel, fmt.Sprintf("time.%s in simulation code: wall-clock time is nondeterministic; annotate the line //jm:wallclock <why> if this is a host-rate probe", obj.Name()))
				return true
			})
		}
	},
}

// ---- JML002: unseeded math/rand --------------------------------------

// RandAnalyzer flags draws from math/rand's global source. The global
// source is seeded per-process, so any value it produces varies run to
// run. Constructing an explicitly seeded generator (rand.New,
// rand.NewSource, rand.NewZipf) is fine and is the required pattern.
var RandAnalyzer = &Analyzer{
	Name: "rand",
	Code: "JML002",
	Doc:  "math/rand global-source draws are nondeterministic; use rand.New(rand.NewSource(seed))",
	Run: func(prog *Program, pkg *Package, report func(ast.Node, string)) {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				if p := obj.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
					return true
				}
				if isMethod(obj) { // methods on an explicit *rand.Rand are fine
					return true
				}
				switch obj.Name() {
				case "New", "NewSource", "NewZipf": // constructors, not draws
					return true
				}
				if pkg.suppressed(prog.Fset, sel, "rand-ok") {
					return true
				}
				report(sel, fmt.Sprintf("rand.%s draws from the process-global source: seed an explicit generator with rand.New(rand.NewSource(seed)) instead", obj.Name()))
				return true
			})
		}
	},
}

// ---- JML003: map iteration on digest/trace paths ---------------------

// MapOrderAnalyzer flags `range` over a map in any function reachable
// from a digest, trace, or hook-replay root. Go randomizes map
// iteration order per run, so such a range makes the digest or trace
// depend on the iteration schedule. Sites that collect-then-sort (or
// otherwise argue order-independence) carry //jm:maporder <rationale>.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Code: "JML003",
	Doc:  "range over map in a digest/trace/hook-replay path is order-nondeterministic",
	Run: func(prog *Program, pkg *Package, report func(ast.Node, string)) {
		reach := prog.CallGraph().digestReachable()
		inspectReachable(prog, pkg, reach, func(fn *funcNode, n ast.Node) {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			tv, ok := pkg.Info.Types[rng.X]
			if !ok {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return
			}
			if pkg.suppressed(prog.Fset, rng, "maporder") {
				return
			}
			report(rng, fmt.Sprintf("map iteration in %s, which is reachable from a digest/trace root: iteration order is randomized; sort the keys or annotate //jm:maporder <why order cannot leak>", fn.name))
		})
	},
}

// ---- JML004: host concurrency on the step path -----------------------

// StepConcurrencyAnalyzer flags goroutine spawns and channel operations
// in functions reachable from Step/SkipTo (and from registered hooks)
// outside internal/engine. The engine owns all host-side parallelism
// and keeps it deterministic by running only the node phase
// concurrently, each goroutine on its own slab of nodes; anywhere else,
// a `go` statement or channel op on the per-cycle path introduces
// scheduling nondeterminism the equivalence suites cannot see.
var StepConcurrencyAnalyzer = &Analyzer{
	Name: "stepconc",
	Code: "JML004",
	Doc:  "goroutine/channel use on the per-cycle step path outside internal/engine",
	Run: func(prog *Program, pkg *Package, report func(ast.Node, string)) {
		if strings.HasSuffix(pkg.Path, "/internal/engine") {
			return
		}
		reach := prog.CallGraph().stepReachable()
		inspectReachable(prog, pkg, reach, func(fn *funcNode, n ast.Node) {
			var what string
			switch n := n.(type) {
			case *ast.GoStmt:
				what = "goroutine spawn"
			case *ast.SendStmt:
				what = "channel send"
			case *ast.SelectStmt:
				what = "select"
			case *ast.UnaryExpr:
				if n.Op != token.ARROW {
					return
				}
				what = "channel receive"
			default:
				return
			}
			if pkg.suppressed(prog.Fset, n, "conc-ok") {
				return
			}
			report(n, fmt.Sprintf("%s in %s, which is reachable from a step path: host concurrency outside internal/engine breaks replay determinism", what, fn.name))
		})
	},
}

// ---- JML005: undeclared cycle hooks ----------------------------------

// HookDeclAnalyzer requires every AddCycleFn call site to carry
// //jm:pins <rationale> (the hook pins the event horizon: SkipTo can
// no longer leap over idle regions) and every AddCycleHook call site to
// carry //jm:horizon <rationale> (why the declared horizon bounds the
// hook's next effect). The annotations force the horizon cost of a
// hook to be argued where it is incurred.
var HookDeclAnalyzer = &Analyzer{
	Name: "hookdecl",
	Code: "JML005",
	Doc:  "AddCycleFn needs //jm:pins, AddCycleHook needs //jm:horizon, with rationale",
	Run: func(prog *Program, pkg *Package, report func(ast.Node, string)) {
		for _, f := range pkg.Files {
			var stack []*ast.FuncDecl
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok {
					stack = append(stack, fd)
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeName(call)
				var key string
				switch name {
				case "AddCycleFn":
					key = "pins"
				case "AddCycleHook":
					key = "horizon"
				default:
					return true
				}
				// The registrar's own (wrapper) implementation is the
				// mechanism, not a use: a method named AddCycleFn that
				// forwards to the engine does not need the annotation.
				if len(stack) > 0 && stack[len(stack)-1].Name.Name == name {
					return true
				}
				if pkg.suppressed(prog.Fset, call, key) {
					return true
				}
				report(call, fmt.Sprintf("%s call site must declare its horizon cost: annotate //jm:%s <rationale>", name, key))
				return true
			})
		}
	},
}

// ---- JML006: digest-exempt fields read on step paths -----------------

// DigestExemptAnalyzer tracks struct fields marked //jm:digest-exempt
// (state deliberately excluded from StateDigest, e.g. observer taps)
// and flags reads of those fields in functions reachable from the step
// path. A digest-exempt field that feeds back into stepping would make
// two runs with identical digests diverge. Writes are fine; a
// sanctioned read carries //jm:digest-exempt-ok <rationale>.
var DigestExemptAnalyzer = &Analyzer{
	Name: "digestexempt",
	Code: "JML006",
	Doc:  "//jm:digest-exempt fields must not be read on Step/SkipTo paths",
	Run: func(prog *Program, pkg *Package, report func(ast.Node, string)) {
		exempt := prog.exemptFields()
		if len(exempt) == 0 {
			return
		}
		reach := prog.CallGraph().stepReachable()
		// Assignment targets are visited before their operands in the
		// same walk, so recording them here lets the selector case
		// below skip writes.
		writes := make(map[*ast.SelectorExpr]bool)
		inspectReachable(prog, pkg, reach, func(fn *funcNode, n ast.Node) {
			// A write (selector as assignment LHS) is allowed.
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
				return
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || writes[sel] {
				return
			}
			s, ok := pkg.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return
			}
			v, ok := s.Obj().(*types.Var)
			if !ok || !exempt[v] {
				return
			}
			if pkg.suppressed(prog.Fset, sel, "digest-exempt-ok") {
				return
			}
			report(sel, fmt.Sprintf("read of digest-exempt field %s.%s in %s, which is reachable from a step path: exempt state must not influence stepping; annotate //jm:digest-exempt-ok <why> if it provably cannot", s.Recv().String(), v.Name(), fn.name))
		})
	},
}

// exemptFields collects every struct field whose declaration carries
// //jm:digest-exempt, across all loaded packages.
func (p *Program) exemptFields() map[*types.Var]bool {
	if p.exempt != nil {
		return p.exempt
	}
	p.exempt = make(map[*types.Var]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			notes := pkg.Notes[f]
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					line := p.Fset.Position(field.Pos()).Line
					if !notes.Has(line, "digest-exempt", false) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							p.exempt[v] = true
						}
					}
				}
				return true
			})
		}
	}
	return p.exempt
}
