package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// simReachable lists the packages whose executions must be a pure
// function of the configured seed: everything the deterministic
// simulator can reach while replaying the E1–E12 tables, the protocol
// machines it drives, the spec checkers that judge the event stream,
// and the pure state machines the model checker drives.
// Matched by path suffix (see pathMatches) so fixture packages can opt
// in.
var simReachable = []string{
	"internal/sim",
	"internal/channel",
	"internal/experiment",
	"internal/pif",
	"internal/fwd",
	"internal/spec",
	// protocol machines
	"internal/idl",
	"internal/mutex",
	"internal/reset",
	"internal/snapshot",
	"internal/baseline",
	// corruption and configuration feeding the machines
	"internal/adversary",
	"internal/config",
	// the socket transports' link-window state machine: clock-free by
	// contract, and explored exhaustively by internal/check
	"internal/window",
}

// wallClock are the time functions that read the wall clock; they are
// banned even in test-file mode, because a table or assertion derived
// from them cannot replay.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

// pacing are the time functions that only pace real goroutines. They are
// banned in sim-reachable production code (the simulator has no clock)
// but tolerated in test files, which may legitimately wait for real
// concurrency to settle.
var pacing = map[string]bool{
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly seeded generator; everything else at package level draws
// from the global, unseedable-per-run stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism enforces seed-pure execution in sim-reachable packages:
// no wall clock, no timers, no global math/rand, no raw seed arithmetic
// outside rng.Mix, and no map iteration feeding order-sensitive state.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, timers, global math/rand, raw seed arithmetic, " +
		"and order-sensitive map iteration in sim-reachable packages",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !pathMatches(pass.Path, simReachable) {
		return nil
	}
	for _, f := range pass.Files {
		// A for-loop post statement like `seed++` enumerates a seed
		// sweep rather than deriving a stream; exempt it from the seed
		// arithmetic rule.
		loopPost := make(map[ast.Stmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if fs, ok := n.(*ast.ForStmt); ok && fs.Post != nil {
				loopPost[fs.Post] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkBannedRef(pass, n)
			case *ast.BlockStmt:
				checkMapRanges(pass, n.List)
			case *ast.CaseClause:
				checkMapRanges(pass, n.Body)
			case *ast.CommClause:
				checkMapRanges(pass, n.Body)
			case *ast.BinaryExpr:
				checkSeedArith(pass, n)
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && !loopPost[n] {
					for _, lhs := range n.Lhs {
						if isSeedExpr(pass, lhs) {
							pass.Reportf(n.Pos(), "seed arithmetic outside rng.Mix: %s on %s; derive seeds with rng.Mix so every value is a pure function of its coordinates", n.Tok, baseName(lhs))
						}
					}
				}
			case *ast.IncDecStmt:
				if !loopPost[n] && isSeedExpr(pass, n.X) {
					pass.Reportf(n.Pos(), "seed arithmetic outside rng.Mix: %s on %s; derive seeds with rng.Mix so every value is a pure function of its coordinates", n.Tok, baseName(n.X))
				}
			}
			return true
		})
	}
	return nil
}

// checkBannedRef flags any reference (call or value use) to the banned
// time and math/rand package functions.
func checkBannedRef(pass *Pass, id *ast.Ident) {
	obj, _ := pass.Info.Uses[id].(*types.Func)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return
	}
	test := pass.InTestFile(id.Pos())
	switch obj.Pkg().Path() {
	case "time":
		name := obj.Name()
		switch {
		case wallClock[name]:
			pass.Reportf(id.Pos(), "time.%s reads the wall clock in a sim-reachable package; executions must be a pure function of the seed", name)
		case pacing[name] && !test:
			pass.Reportf(id.Pos(), "time.%s in a sim-reachable package; the deterministic simulator has no clock — pace only real-concurrency test code", name)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[obj.Name()] {
			pass.Reportf(id.Pos(), "global %s.%s draws from an unseedable stream; use internal/rng (SplitMix64) so executions replay", obj.Pkg().Name(), obj.Name())
		}
	}
}

// checkMapRanges flags `for range m` over a map whose body feeds
// order-sensitive state. Collecting keys into a slice is exempt when a
// later statement of the same block visibly sorts that slice — the
// canonical deterministic-iteration idiom.
func checkMapRanges(pass *Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		if _, ok := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
			continue
		}
		kind, pos, dest, destObj := orderSensitive(pass, rs.Body)
		if kind == "" {
			continue
		}
		// An append destination declared inside the loop body restarts
		// every iteration; nothing order-sensitive accumulates.
		if destObj != nil && destObj.Pos() >= rs.Body.Pos() && destObj.Pos() <= rs.Body.End() {
			continue
		}
		if dest != "" && sortedLater(pass, stmts[i+1:], dest) {
			continue
		}
		pass.Reportf(pos, "map iteration feeds order-sensitive state (%s) in a sim-reachable package; iterate a sorted key slice instead", kind)
	}
}

// orderSensitive scans a range body for operations whose result depends
// on iteration order. It returns a description, the offending position,
// and the append destination (name and object) when the operation was an
// append.
func orderSensitive(pass *Pass, body *ast.BlockStmt) (kind string, pos token.Pos, dest string, destObj types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested ranges are checked as their own statements.
			return true
		case *ast.SendStmt:
			kind, pos = "channel send", n.Pos()
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(n.Args) > 0 {
					kind, pos, dest = "append", n.Pos(), baseName(n.Args[0])
					if base, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						destObj = pass.Info.ObjectOf(base)
					}
					return false
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "OnEvent", "Emit", "emit", "Write", "WriteString", "WriteByte", "WriteRune",
					"Fprintf", "Fprint", "Fprintln", "Printf", "Print", "Println":
					kind, pos = "emission via "+sel.Sel.Name, n.Pos()
					return false
				}
			}
		}
		return true
	})
	return kind, pos, dest, destObj
}

// sortedLater reports whether a subsequent statement sorts dest via the
// sort or slices package.
func sortedLater(pass *Pass, stmts []ast.Stmt, dest string) bool {
	for _, stmt := range stmts {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[pkg].(*types.PkgName)
			if !ok {
				return true
			}
			if p := pn.Imported().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if mentionsName(arg, dest) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// mentionsName reports whether expr contains an identifier named name.
func mentionsName(expr ast.Expr, name string) bool {
	var found bool
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

var seedArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.XOR: true, token.AND: true, token.OR: true,
	token.AND_NOT: true, token.SHL: true, token.SHR: true,
}

func checkSeedArith(pass *Pass, be *ast.BinaryExpr) {
	if !seedArithOps[be.Op] {
		return
	}
	for _, op := range []ast.Expr{be.X, be.Y} {
		if isSeedExpr(pass, op) {
			pass.Reportf(be.Pos(), "seed arithmetic outside rng.Mix: %s %s ...; derive seeds with rng.Mix so every value is a pure function of its coordinates", baseName(op), be.Op)
			return
		}
	}
}

// isSeedExpr reports whether e is an integer-typed identifier or field
// whose name contains "seed".
func isSeedExpr(pass *Pass, e ast.Expr) bool {
	name := strings.ToLower(baseName(e))
	if !strings.Contains(name, "seed") {
		return false
	}
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
