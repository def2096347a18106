package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc flags allocation-causing constructs inside functions annotated
// //firmament:hotpath. The solver inner loops, placement extraction and
// apply, and the template hit path promise 0 allocs/op in steady state;
// the runtime TestSteadyState gates catch a regression as a bare counter,
// while this analyzer points at the construct responsible:
//
//   - any fmt.* call (formatting always allocates);
//   - interface boxing: a non-pointer-shaped concrete value passed or
//     converted to an interface;
//   - a closure (FuncLit) that captures enclosing local variables — the
//     capture forces a heap-allocated closure object;
//   - make(map/slice), map/slice composite literals, new(T), &T{};
//   - append to a slice declared `var s []T` in the same function —
//     growing from nil always allocates.
//
// Subtrees under panic(...) are skipped: a panic argument is by
// definition off the steady-state path. Remaining cold paths (error
// returns on invariant violations) carry //firmament:ignore waivers
// stating why they cannot fire in steady state.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocating constructs in //firmament:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, fn := range funcDecls(pass.Files) {
		if !pass.FuncHas(fn, "hotpath") {
			continue
		}
		nilSlices := localNilSlices(pass, fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if isPanicCall(e) {
					return false // panic args are off the steady-state path
				}
				pass.checkCallAlloc(e, nilSlices)
			case *ast.FuncLit:
				if capt := capturedLocal(pass, e); capt != "" {
					pass.Reportf(e.Pos(), "closure captures %q and allocates on the hot path; hoist state into a scratch struct", capt)
				}
			case *ast.CompositeLit:
				t := pass.Info.TypeOf(e)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(e.Pos(), "map literal allocates on the hot path")
				case *types.Slice:
					pass.Reportf(e.Pos(), "slice literal allocates on the hot path")
				}
			case *ast.UnaryExpr:
				if e.Op.String() == "&" {
					if _, ok := e.X.(*ast.CompositeLit); ok {
						pass.Reportf(e.Pos(), "&T{} escapes to the heap on the hot path; reuse a scratch value")
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkCallAlloc reports allocating calls: fmt.*, make(map/slice), new,
// append-from-nil, and interface boxing at the call boundary.
func (p *Pass) checkCallAlloc(call *ast.CallExpr, nilSlices map[types.Object]bool) {
	// Conversions: T(x) where T is an interface type boxes x.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := p.Info.TypeOf(call.Args[0]); at != nil && boxes(at, tv.Type) {
				p.Reportf(call.Pos(), "conversion to interface boxes a %s on the hot path", at)
			}
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if len(call.Args) == 0 {
				break
			}
			if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.IsType() {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					p.Reportf(call.Pos(), "make(map) allocates on the hot path; reuse a scratch map")
				case *types.Slice:
					p.Reportf(call.Pos(), "make(slice) allocates on the hot path; reuse a scratch slice")
				}
			}
		case "new":
			p.Reportf(call.Pos(), "new(T) allocates on the hot path")
		case "append":
			if len(call.Args) == 0 {
				break
			}
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil && nilSlices[obj] {
					p.Reportf(call.Pos(), "append to nil-declared slice %q always allocates on the hot path; give it capacity or hoist it", id.Name)
				}
			}
		}
	case *ast.SelectorExpr:
		if obj := p.Info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s allocates on the hot path", obj.Name())
			return
		}
	}

	// Interface boxing at call arguments.
	sig, ok := typeOfCallee(p, call)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || !boxes(at, pt) {
			continue
		}
		p.Reportf(arg.Pos(), "passing %s to interface parameter boxes it on the hot path", at)
	}
}

// boxes reports whether passing a value of concrete type at to an
// interface parameter heap-allocates: true unless at is already an
// interface, untyped nil, or pointer-shaped (pointers, channels, maps,
// funcs and unsafe.Pointer store directly in the interface word).
func boxes(at, _ types.Type) bool {
	if types.IsInterface(at) {
		return false
	}
	switch u := at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
	}
	return true
}

// typeOfCallee returns the signature of the called function, if resolvable.
func typeOfCallee(p *Pass, call *ast.CallExpr) (*types.Signature, bool) {
	t := p.Info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// capturedLocal returns the name of a function-local variable captured by
// lit (forcing a heap-allocated closure), or "" if lit captures nothing.
// Package-level objects and the literal's own parameters/locals don't
// count.
func capturedLocal(p *Pass, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level vars are not captured state.
		if v.Parent() == p.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		// Declared inside the literal itself → not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		captured = v.Name()
		return false
	})
	return captured
}

// localNilSlices collects objects declared `var s []T` (no initializer) in
// fn — slices whose first append is guaranteed to allocate.
func localNilSlices(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
