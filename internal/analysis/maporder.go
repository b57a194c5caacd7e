package analysis

import (
	"go/ast"
	"go/types"
)

// Maporder flags `range` over a map whose loop body appends to a slice or
// writes output. Go randomizes map iteration order, so such loops produce
// a differently ordered slice or report on every run — the direct cause of
// non-reproducible experiment tables. The fix is to collect the keys,
// sort them, and range over the sorted slice; the key-collection idiom
// itself (a body that only appends the bare key) is recognized and exempt,
// and so is an append to a slice that the same function sorts after the
// loop. This is the taint rule's map-order source check (mapOrderSource),
// applied to every function rather than only to those reaching a sink.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag range over maps whose body appends to a slice or writes output",
	Run:  runMaporder,
}

func runMaporder(pass *Pass) {
	var body *ast.BlockStmt // outermost enclosing function body
	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			if body == nil || n.Pos() >= body.End() {
				body = n.Body // package-level function literal
			}
		case *ast.RangeStmt:
			if site := mapOrderSource(pass.Info, body, n); site != nil {
				pass.Reportf(n.For, "iteration over a map %s; map order is randomized — sort the keys first", site.what)
			}
		}
		return true
	})
}

// isKeyCollection recognizes the canonical pre-sort idiom:
//
//	for k := range m { keys = append(keys, k) }
//
// i.e. a single-statement body appending exactly the range key.
func isKeyCollection(rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// orderSite describes why a map range is order-sensitive; target is the
// outer object appended to (nil for output writes), which the taint
// engine's sort-after-collect sanitizer keys on.
type orderSite struct {
	what   string
	target types.Object
}

// orderSensitiveStmt scans a loop body for statements whose effect
// escapes one iteration in an order-dependent way: appends to a slice
// declared outside the loop, and output writes to a writer declared
// outside the loop (or to the process streams via fmt.Print*). Appends
// and writes to loop-local scratch values are consumed within the same
// iteration and cannot leak iteration order.
func orderSensitiveStmt(info *types.Info, rng *ast.RangeStmt) *orderSite {
	declaredInside := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
	}
	var found *orderSite
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" &&
				len(call.Args) > 0 && !declaredInside(call.Args[0]) {
				site := &orderSite{what: "appends to a slice"}
				if id := rootIdent(call.Args[0]); id != nil {
					if obj := info.Uses[id]; obj != nil {
						site.target = obj
					}
				}
				found = site
			}
		case *ast.SelectorExpr:
			fn, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			name := fn.Name()
			if fn.Pkg().Path() == "fmt" {
				if printFuncs[name] {
					found = &orderSite{what: "emits output"}
				}
				if (name == "Fprint" || name == "Fprintf" || name == "Fprintln") &&
					len(call.Args) > 0 && !declaredInside(call.Args[0]) {
					found = &orderSite{what: "emits output"}
				}
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && !declaredInside(fun.X) {
				switch name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					found = &orderSite{what: "emits output"}
				}
			}
		}
		return found == nil
	})
	return found
}

// rootIdent unwraps selector, index, and star expressions to the base
// identifier, e.g. t.Rows[i] -> t.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
