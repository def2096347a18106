package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WALOrder enforces the journal-before-publish rule of internal/service
// (docs/durability.md): anything externally observable — a publish to
// Watch subscribers, or registering a submitted job in the cluster — must
// be dominated by the corresponding WAL append, so a crash between the
// two replays to a state at least as advanced as what any observer saw.
//
// Concretely, within internal/service:
//
//   - a call to publish(...) requires an earlier journal append (by
//     source position, the walk's dominance approximation) in the same
//     function: a call to journalRound, or Append on the write-ahead log
//     (a *wal.Log);
//   - a call to SubmitJobWithID requires an earlier journal append of a
//     submit record: an Append that follows a call to encodeSubmitRecord.
//
// Functions annotated //firmament:journaled are exempt: they *consume*
// the journal (replay/restore), so their writes are re-derivations of
// already-durable records, not new externally-observable state.
var WALOrder = &Analyzer{
	Name: "walorder",
	Doc:  "requires WAL appends to dominate publishes and job registration in internal/service",
	Run:  runWALOrder,
}

func runWALOrder(pass *Pass) error {
	if !pass.pkgPathEndsIn("service") {
		return nil
	}
	for _, fn := range funcDecls(pass.Files) {
		if pass.FuncHas(fn, "journaled") {
			continue
		}
		checkWALOrderFunc(pass, fn)
	}
	return nil
}

func checkWALOrderFunc(pass *Pass, fn *ast.FuncDecl) {
	var (
		firstAppend  = token.Pos(0) // earliest journal append of any kind
		encodeSubmit = token.Pos(0) // earliest encodeSubmitRecord call
		firstSubmit  = token.Pos(0) // earliest append after encodeSubmit
	)
	// First sweep, which visits calls in source order: find the earliest
	// journal append, and the earliest one that follows a submit encoding.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "encodeSubmitRecord" && encodeSubmit == 0 {
			encodeSubmit = call.Pos()
		}
		if isJournalAppend(pass, call) {
			if firstAppend == 0 {
				firstAppend = call.Pos()
			}
			if encodeSubmit != 0 && firstSubmit == 0 {
				firstSubmit = call.Pos()
			}
		}
		return true
	})
	// Second sweep: every observable effect must come after an append.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeMethodName(call) {
		case "publish":
			if firstAppend == 0 || call.Pos() < firstAppend {
				pass.Reportf(call.Pos(), "publish to subscribers is not dominated by a journal append (journal-before-publish); append the round record first or annotate the function //firmament:journaled")
			}
		case "SubmitJobWithID":
			if firstSubmit == 0 || call.Pos() < firstSubmit {
				pass.Reportf(call.Pos(), "job registered in the cluster before its submit record was journaled (journal-before-register)")
			}
		}
		return true
	})
}

// isJournalAppend reports whether call makes a record durable: the
// journalRound stage, or Append on a write-ahead log (a named Log type).
func isJournalAppend(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "journalRound":
		return true
	case "Append":
		t := pass.Info.TypeOf(sel.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Log"
	}
	return false
}

// calleeMethodName returns the bare method/function name of a call's
// selector callee ("s.publish(...)" → "publish"), or "" for other shapes.
func calleeMethodName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}
