package lint

import (
	"go/ast"
	"go/types"
)

// funcNode is one function body in the call graph: a declared function
// or method, or a function literal.
type funcNode struct {
	pkg  *Package
	obj  *types.Func   // nil for literals
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	name string        // "(*Machine).Step", "StateDigest", "func literal"

	callees []*funcNode

	// hookArg marks a function passed to a hook-registration call
	// (AddCycleFn, AddDeliverFn, SetSyncHook, ...): it will run once
	// per cycle or per event on the determinism-critical path.
	hookArg bool
}

// body returns the function's statement block (nil for bodiless decls).
func (fn *funcNode) body() *ast.BlockStmt {
	if fn.lit != nil {
		return fn.lit.Body
	}
	if fn.decl != nil {
		return fn.decl.Body
	}
	return nil
}

// pos returns a representative node for reporting.
func (fn *funcNode) node() ast.Node {
	if fn.lit != nil {
		return fn.lit
	}
	return fn.decl
}

// hookRegistrars are the functions whose func-typed arguments become
// per-cycle hooks or event callbacks: anything handed to them executes
// on the determinism-critical path (deliver and drop hooks in router
// order, cycle hooks on the coordinator, per-node taps).
var hookRegistrars = map[string]bool{
	"AddCycleFn":      true,
	"AddCycleHook":    true,
	"AddDeliverFn":    true,
	"AddDropFn":       true,
	"AddInjectFn":     true,
	"SetFilterFn":     true,
	"SetStallFn":      true,
	"SetWakeFn":       true,
	"SetSyncHook":     true,
	"SetFaultFn":      true,
	"RegisterService": true,
}

// callGraph is the static call graph over every loaded package.
// Resolution is conservative in the directions that matter here:
// method calls through interfaces fan out to every loaded
// implementation, taking a function's value (without calling it) adds
// an edge, and a function literal is an edge from its enclosing
// function. Calls through plain func values (fields, variables) are
// not resolved — the hook-registration roots cover the targets that
// matter for determinism.
type callGraph struct {
	prog  *Program
	nodes map[*types.Func]*funcNode
	lits  map[*ast.FuncLit]*funcNode
	all   []*funcNode

	// pendingHookLits holds literals seen as hook-registration
	// arguments before their own node exists (the enclosing CallExpr is
	// visited first); the FuncLit case of addEdges consumes it.
	pendingHookLits map[*ast.FuncLit]bool

	digestReach map[*funcNode]bool // memo for digestReachable
	stepReach   map[*funcNode]bool // memo for stepReachable
}

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *callGraph {
	if p.graph != nil {
		return p.graph
	}
	g := &callGraph{
		prog:            p,
		nodes:           make(map[*types.Func]*funcNode),
		lits:            make(map[*ast.FuncLit]*funcNode),
		pendingHookLits: make(map[*ast.FuncLit]bool),
	}
	// Pass 1: one node per declared function.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := &funcNode{pkg: pkg, obj: obj, decl: fd, name: funcName(obj)}
				g.nodes[obj] = fn
				g.all = append(g.all, fn)
			}
		}
	}
	// Pass 2: edges.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				g.addEdges(g.nodes[obj], pkg, fd.Body)
			}
		}
	}
	p.graph = g
	return g
}

func funcName(obj *types.Func) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" }) + "." + obj.Name()
	}
	return obj.Name()
}

// addEdges walks one function body, creating literal nodes and edges.
func (g *callGraph) addEdges(from *funcNode, pkg *Package, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fn := &funcNode{pkg: pkg, lit: n, name: "func literal", hookArg: g.pendingHookLits[n]}
			g.lits[n] = fn
			g.all = append(g.all, fn)
			from.callees = append(from.callees, fn)
			g.addEdges(fn, pkg, n.Body)
			return false // addEdges recursed already
		case *ast.CallExpr:
			g.addCallEdges(from, pkg, n)
		case *ast.Ident:
			// Taking a function's value: conservative edge.
			if obj, ok := pkg.Info.Uses[n].(*types.Func); ok {
				if to := g.nodes[obj]; to != nil {
					from.callees = append(from.callees, to)
				}
			}
		case *ast.SelectorExpr:
			if obj, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
				if to := g.resolve(obj); to != nil {
					from.callees = append(from.callees, to)
				} else {
					from.callees = append(from.callees, g.implementers(obj)...)
				}
			}
		}
		return true
	})
}

// addCallEdges records hook-argument roots for calls to the known
// registration functions (the callee edge itself is added by the
// Ident/SelectorExpr cases of addEdges).
func (g *callGraph) addCallEdges(from *funcNode, pkg *Package, call *ast.CallExpr) {
	name := calleeName(call)
	if !hookRegistrars[name] {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := unparen(arg).(*ast.FuncLit); ok {
			g.pendingHookLits[lit] = true // node created when the walk reaches it
			continue
		}
		if fn := g.funcFor(pkg, arg); fn != nil {
			fn.hookArg = true
		}
	}
}

// funcFor resolves an expression to the function node it denotes, when
// it statically denotes one (identifier, method value, or literal).
func (g *callGraph) funcFor(pkg *Package, e ast.Expr) *funcNode {
	switch e := e.(type) {
	case *ast.FuncLit:
		return g.lits[e]
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return g.nodes[obj]
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return g.resolve(obj)
		}
	case *ast.ParenExpr:
		return g.funcFor(pkg, e.X)
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeName extracts the bare name of a call's callee expression.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// resolve maps a *types.Func to its node, if its body is loaded.
func (g *callGraph) resolve(obj *types.Func) *funcNode { return g.nodes[obj] }

// implementers resolves an interface method to every loaded concrete
// method that may satisfy it.
func (g *callGraph) implementers(m *types.Func) []*funcNode {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*funcNode
	for _, fn := range g.all {
		if fn.obj == nil || fn.obj.Name() != m.Name() {
			continue
		}
		fsig, ok := fn.obj.Type().(*types.Signature)
		if !ok || fsig.Recv() == nil {
			continue
		}
		recv := fsig.Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, fn)
		}
	}
	return out
}

// reachable returns every function reachable from the nodes selected
// by root (following the conservative edge set).
func (g *callGraph) reachable(root func(*funcNode) bool) map[*funcNode]bool {
	seen := make(map[*funcNode]bool)
	var stack []*funcNode
	for _, fn := range g.all {
		if root(fn) {
			seen[fn] = true
			stack = append(stack, fn)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range fn.callees {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// declLine returns the source line of the function's declaration.
func (g *callGraph) declLine(fn *funcNode) int {
	return g.prog.Fset.Position(fn.node().Pos()).Line
}

// annotated reports whether the function's declaration line carries the
// given annotation.
func (fn *funcNode) annotated(prog *Program, key string) bool {
	f := fn.pkg.fileOf(fn.node())
	if f == nil {
		return false
	}
	line := prog.Fset.Position(fn.node().Pos()).Line
	return fn.pkg.Notes[f].Has(line, key, false)
}
