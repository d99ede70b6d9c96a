package analysis

import (
	"go/ast"

	"regsat/internal/analysis/framework"
)

// UndoBalance enforces the arena undo-trail discipline of the incremental
// exact search (rs.Incremental): a *probe* push — the guarded form
// `if !ik.Push(...) { ... }` — must be rolled back by a Pop on every path,
// and the guard's failure branch must leave the region (Push reported
// false, so there is no frame to pop). Push in any other form leaves a
// frame nothing pops and is itself a finding: a decision that persists for
// the remainder of the search (single-killer prefixes, the greedy's final
// decision) is an `ik.Commit(...)`, the only unpaired form.
var UndoBalance = &framework.Analyzer{
	Name: "undobalance",
	Doc: "balance rs.Incremental Push/Pop along every control path\n\n" +
		"The branch-and-bound's longest-path matrix, DV_k order rows, and\n" +
		"matching are restored exclusively by Pop replaying the undo trail.\n" +
		"A probe push that escapes its block without a Pop (early return,\n" +
		"continue, break) leaves the evaluator permanently corrupted for\n" +
		"every sibling subtree. Flags: guarded pushes with no block-local\n" +
		"Pop, control leaving the Push..Pop region, guard failure branches\n" +
		"that fall through, Pops with no preceding probe, and Push calls\n" +
		"outside the guarded probe form (persisting decisions use Commit).",
	Run: runUndoBalance,
}

func runUndoBalance(pass *framework.Pass) error {
	if !scoped(pass, rsPkg) {
		return nil
	}
	info := pass.TypesInfo

	// incCall matches method calls on (*rs.Incremental).
	incCall := func(e ast.Expr, name string) *ast.CallExpr {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return nil
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return nil
		}
		if !isNamedType(typeOf(info, sel.X), rsPkg, "Incremental") {
			return nil
		}
		return call
	}
	// guardedPush matches `if !recv.Push(...) { ... }` (no else, the probe
	// idiom) and returns the Push call.
	guardedPush := func(st ast.Stmt) *ast.CallExpr {
		ifst, ok := st.(*ast.IfStmt)
		if !ok || ifst.Init != nil {
			return nil
		}
		not, ok := ifst.Cond.(*ast.UnaryExpr)
		if !ok || not.Op.String() != "!" {
			return nil
		}
		return incCall(not.X, "Push")
	}
	popStmt := func(st ast.Stmt) bool {
		switch s := st.(type) {
		case *ast.ExprStmt:
			return incCall(s.X, "Pop") != nil
		case *ast.DeferStmt:
			return incCall(s.Call, "Pop") != nil
		}
		return false
	}
	// reportEscapes flags control leaving the Push..Pop region: returns and
	// gotos anywhere, break/continue not swallowed by a loop or switch that
	// is itself inside the region. Nested function literals are separate
	// control flow.
	var walkEscape func(st ast.Stmt, depth int)
	walkEscape = func(st ast.Stmt, depth int) {
		switch s := st.(type) {
		case *ast.ReturnStmt:
			pass.Reportf(s.Pos(), "control leaves the region between Push and its Pop: the undo trail is not restored on this path")
		case *ast.BranchStmt:
			// Labeled branches may jump past any nesting; unlabeled ones
			// escape only from the region's own level.
			if s.Label != nil || (depth == 0 && s.Tok.String() != "fallthrough") {
				pass.Reportf(s.Pos(), "%s between Push and its Pop: the undo trail is not restored on this path", s.Tok)
			}
		case *ast.BlockStmt:
			for _, inner := range s.List {
				walkEscape(inner, depth)
			}
		case *ast.IfStmt:
			walkEscape(s.Body, depth)
			if s.Else != nil {
				walkEscape(s.Else, depth)
			}
		case *ast.ForStmt:
			walkEscape(s.Body, depth+1)
		case *ast.RangeStmt:
			walkEscape(s.Body, depth+1)
		case *ast.SwitchStmt:
			walkEscape(s.Body, depth+1)
		case *ast.TypeSwitchStmt:
			walkEscape(s.Body, depth+1)
		case *ast.SelectStmt:
			walkEscape(s.Body, depth+1)
		case *ast.CaseClause:
			for _, inner := range s.Body {
				walkEscape(inner, depth)
			}
		case *ast.CommClause:
			for _, inner := range s.Body {
				walkEscape(inner, depth)
			}
		case *ast.LabeledStmt:
			walkEscape(s.Stmt, depth)
		}
	}
	reportEscapes := func(stmts []ast.Stmt) {
		for _, st := range stmts {
			walkEscape(st, 0)
		}
	}
	terminates := func(body *ast.BlockStmt) bool {
		if body == nil || len(body.List) == 0 {
			return false
		}
		switch body.List[len(body.List)-1].(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		}
		return false
	}

	for _, f := range pass.Files {
		// Every Push call that is not the condition of a guarded probe is
		// unpaired: report it.
		probes := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(ast.Stmt); ok {
				if push := guardedPush(st); push != nil {
					probes[push] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if push := incCall(e, "Push"); push != nil && !probes[push] {
					pass.Reportf(push.Pos(), "Push outside the guarded probe form `if !ik.Push(...) { ... }`: its frame is never popped; use Commit for a decision that persists")
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			type open struct {
				idx  int
				call *ast.CallExpr
			}
			var opens []open
			for i, st := range block.List {
				if push := guardedPush(st); push != nil {
					opens = append(opens, open{idx: i, call: push})
					if !terminates(st.(*ast.IfStmt).Body) {
						pass.Reportf(push.Pos(), "guard branch of failed Push falls through: when Push reports a cycle no frame was pushed, so execution must leave before the matching Pop")
					}
					continue
				}
				if popStmt(st) {
					if len(opens) == 0 {
						pass.Reportf(st.Pos(), "Pop without a preceding probe Push in this block: probe pushes and their rollbacks must be block-local")
						continue
					}
					last := opens[len(opens)-1]
					opens = opens[:len(opens)-1]
					reportEscapes(block.List[last.idx+1 : i])
				}
			}
			for _, o := range opens {
				pass.Reportf(o.call.Pos(), "probe Push has no matching Pop in its block: every guarded push must be rolled back before the block ends")
			}
			return true
		})
	}
	return nil
}
