package analysis

import (
	"go/ast"
	"go/types"
)

// appendBufferFuncs are the wire helpers that render into a caller-owned
// scratch buffer. Their results are flush-scoped: valid until the buffer
// is next reused, so they must not outlive the function that produced
// them or alias application memory (the invariant the Bytes codec's
// copy-on-Marshal fixed by hand in PR 5).
var appendBufferFuncs = map[string]bool{
	"AppendEncode":    true,
	"AppendBatch":     true,
	"AppendFrame":     true,
	"AppendLinkFrame": true,
}

// frameMethods are BatchBuilder accessors whose result aliases the
// builder's internal record buffer and dies at the next Reset/Add.
var frameMethods = map[string]bool{"Frame": true, "Bytes": true}

// PoolAlias flags pool-obtained or append-rendered buffers that escape
// their flush scope: returned, sent on a channel, or stored into a
// field, element, or package variable. Self-append into an owned scratch
// field (buf = AppendEncode(buf, ...)) is the intended idiom and is not
// flagged; neither is the package that declares the helper itself.
var PoolAlias = &Analyzer{
	Name: "poolalias",
	Doc:  "flag sync.Pool and wire append buffers that escape their flush scope or alias application memory",
	Run:  runPoolAlias,
}

func runPoolAlias(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBufferScope(pass, n.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// checkBufferScope analyzes one function body: it collects the local
// variables bound to transient buffers, then reports every statement
// that lets such a buffer outlive the function's flush scope.
func checkBufferScope(pass *Pass, body *ast.BlockStmt) {
	tracked := make(map[types.Object]string) // var -> buffer kind
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (len(as.Lhs) != len(as.Rhs) && len(as.Rhs) != 1) {
			return true
		}
		// buf, err := wire.AppendLinkFrame(...): the buffer is the call's
		// first result, so index i serves the tuple form too.
		for i, rhs := range as.Rhs {
			kind := transientBufferSource(pass, rhs)
			if kind == "" {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.Info.ObjectOf(id); obj != nil {
				tracked[obj] = kind
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj, kind := trackedIn(pass, tracked, res); obj != nil {
					pass.Reportf(res.Pos(), "%s %s escapes its flush scope: returned; copy it before it leaves the function", kind, obj.Name())
				}
			}
		case *ast.SendStmt:
			if obj, kind := trackedIn(pass, tracked, n.Value); obj != nil {
				pass.Reportf(n.Value.Pos(), "%s %s escapes its flush scope: sent on a channel", kind, obj.Name())
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if !longLivedTarget(pass, lhs) {
					continue
				}
				rhs := n.Rhs[i]
				if copiesContent(pass, lhs, rhs) {
					continue
				}
				if obj, kind := trackedIn(pass, tracked, rhs); obj != nil {
					pass.Reportf(rhs.Pos(), "%s %s is retained beyond its flush scope (stored into %s); it aliases memory the next flush reuses", kind, obj.Name(), baseName(lhs))
				}
			}
		}
		return true
	})
}

// transientBufferSource classifies an expression that yields a
// flush-scoped buffer, looking through type assertions: a sync.Pool Get,
// a wire Append helper (declared outside this package), or a
// BatchBuilder frame accessor.
func transientBufferSource(pass *Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg() == pass.Pkg {
		// The declaring package owns the buffer protocol; its internals
		// (and self-append helpers) are the implementation, not a leak.
		return ""
	}
	recv := recvNamed(fn)
	switch {
	case fn.Name() == "Get" && recv != nil && recv.Obj().Pkg() != nil &&
		recv.Obj().Pkg().Path() == "sync" && recv.Obj().Name() == "Pool":
		return "sync.Pool buffer"
	case appendBufferFuncs[fn.Name()]:
		return "append-rendered buffer"
	case frameMethods[fn.Name()] && recv != nil && recv.Obj().Name() == "BatchBuilder":
		return "BatchBuilder frame"
	}
	return ""
}

func recvNamed(fn *types.Func) *types.Named {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// trackedIn returns the first tracked buffer variable referenced inside
// e, along with its kind. References through index and slice expressions
// count: a subslice aliases the same backing array.
func trackedIn(pass *Pass, tracked map[types.Object]string, e ast.Expr) (types.Object, string) {
	var obj types.Object
	var kind string
	ast.Inspect(e, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// A call may copy (append, copy, string(...)); its result is
			// the callee's concern. Conversions to string copy too.
			return false
		case *ast.Ident:
			if o := pass.Info.ObjectOf(n); o != nil {
				if k, ok := tracked[o]; ok {
					obj, kind = o, k
				}
			}
		}
		return true
	})
	return obj, kind
}

// longLivedTarget reports whether lhs names storage that outlives the
// current call: a struct field, a map/slice element, a dereference, or a
// package-level variable.
func longLivedTarget(pass *Pass, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := pass.Info.ObjectOf(lhs)
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

// copiesContent recognizes the safe self-append idioms: dst =
// append(dst, buf...) copies the content into dst's backing array, and
// dst = AppendEncode(dst, ...) renders into the caller's own scratch —
// in both, nothing new aliases a transient buffer.
func copiesContent(pass *Pass, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
	case *ast.SelectorExpr:
		if !appendBufferFuncs[fun.Sel.Name] {
			return false
		}
	default:
		return false
	}
	return baseName(call.Args[0]) == baseName(lhs)
}
