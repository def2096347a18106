package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockOrder enforces the locking discipline documented in
// internal/cluster/cluster.go and docs/durability.md:
//
//   - a second table lock (Cluster.mu, which guards the tables, the event
//     journal and machine occupancy) must not be acquired while one is
//     held: a Cluster's table lock is not reentrant, and two clusters'
//     locks have no order;
//   - no blocking channel send under any mutex — publish paths use
//     select-with-default, which is allowed;
//   - no WAL fsync (Sync/SyncTo/syncNow) under any mutex. The WAL's
//     own group-commit coordinator syncMu exists precisely to serialize
//     fsyncs *outside* the buffer lock and is exempt.
//
// Scope: packages named cluster, service, or wal. The tracking is a
// linear intra-procedural walk: branch bodies are analyzed with a cloned
// held-set and their effects discarded, defer'd Unlocks keep the lock held
// to function end, and go/defer bodies are skipped (different
// goroutine/time).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforces one table lock at a time, no blocking send or fsync under locks",
	Run:  runLockOrder,
}

type lockClass int

const (
	lockOther lockClass = iota
	lockTable
	lockExempt // syncMu: the WAL group-commit coordinator
)

// heldSet maps a lock's rendered path ("sh.mu") to its class.
type heldSet map[string]lockClass

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldSet) anyNonExempt() (string, bool) {
	for name, class := range h {
		if class != lockExempt {
			return name, true
		}
	}
	return "", false
}

func (h heldSet) anyOf(class lockClass) (string, bool) {
	for name, c := range h {
		if c == class {
			return name, true
		}
	}
	return "", false
}

func runLockOrder(pass *Pass) error {
	if !pass.pkgPathEndsIn("cluster", "service", "wal") {
		return nil
	}
	for _, fn := range funcDecls(pass.Files) {
		walkLockStmts(pass, fn.Body.List, make(heldSet))
	}
	return nil
}

// walkLockStmts processes stmts linearly, mutating held; control-flow
// bodies get cloned sets whose effects are discarded.
func walkLockStmts(pass *Pass, stmts []ast.Stmt, held heldSet) {
	for _, stmt := range stmts {
		walkLockStmt(pass, stmt, held)
	}
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, held heldSet) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		walkLockStmts(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		inspectLockExprs(pass, s.Cond, held)
		walkLockStmts(pass, s.Body.List, held.clone())
		if s.Else != nil {
			walkLockStmt(pass, s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			inspectLockExprs(pass, s.Cond, held)
		}
		walkLockStmts(pass, s.Body.List, held.clone())
	case *ast.RangeStmt:
		inspectLockExprs(pass, s.X, held)
		walkLockStmts(pass, s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		walkSelect(pass, s, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; other
		// deferred work runs outside this walk's timeline — skip both.
	case *ast.GoStmt:
		// Spawned goroutine: different lock timeline.
	case *ast.LabeledStmt:
		walkLockStmt(pass, s.Stmt, held)
	case *ast.SendStmt:
		if name, blocked := held.anyNonExempt(); blocked {
			pass.Reportf(s.Arrow, "blocking channel send while holding %s; use select with default or send after unlocking", name)
		}
		inspectLockExprs(pass, s.Value, held)
	default:
		inspectLockExprs(pass, stmt, held)
	}
}

// walkSelect analyzes a select statement: sends in a select that has a
// default clause are non-blocking and allowed under a lock.
func walkSelect(pass *Pass, s *ast.SelectStmt, held heldSet) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if send, isSend := cc.Comm.(*ast.SendStmt); isSend && !hasDefault {
			if name, blocked := held.anyNonExempt(); blocked {
				pass.Reportf(send.Arrow, "potentially blocking select send while holding %s; add a default clause or send after unlocking", name)
			}
		}
		walkLockStmts(pass, cc.Body, held.clone())
	}
}

// inspectLockExprs scans a statement/expression subtree (skipping nested
// function literals) for lock transitions, fsync calls, and sends.
func inspectLockExprs(pass *Pass, n ast.Node, held heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			return false // runs on its own timeline
		case *ast.SendStmt:
			if name, blocked := held.anyNonExempt(); blocked {
				pass.Reportf(e.Arrow, "blocking channel send while holding %s; use select with default or send after unlocking", name)
			}
		case *ast.CallExpr:
			handleLockCall(pass, e, held)
		}
		return true
	})
}

// handleLockCall classifies one call: mutex transition, fsync, or neither.
func handleLockCall(pass *Pass, call *ast.CallExpr, held heldSet) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if !isMutexRecv(pass, sel.X) {
			return
		}
		name, class := classifyLock(pass, sel.X)
		acquire(pass, call, held, name, class)
	case "Unlock", "RUnlock":
		if !isMutexRecv(pass, sel.X) {
			return
		}
		name, _ := classifyLock(pass, sel.X)
		delete(held, name)
	case "Sync", "SyncTo", "syncNow":
		if name, blocked := held.anyNonExempt(); blocked {
			pass.Reportf(call.Pos(), "fsync (%s) while holding %s stalls every contender for the lock; sync after unlocking", sel.Sel.Name, name)
		}
	}
}

// acquire records a lock acquisition and reports a second table lock.
func acquire(pass *Pass, call *ast.CallExpr, held heldSet, name string, class lockClass) {
	if class == lockTable {
		if other, ok := held.anyOf(lockTable); ok {
			pass.Reportf(call.Pos(), "table lock %s acquired while holding table lock %s; take one table lock at a time", name, other)
		}
	}
	held[name] = class
}

// isMutexRecv reports whether expr is a sync.Mutex or sync.RWMutex (or
// pointer to one) — distinguishing mutex Lock() from unrelated methods.
func isMutexRecv(pass *Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// classifyLock renders the lock expression as a dotted path and assigns
// its class from the field name and owning type.
func classifyLock(pass *Pass, expr ast.Expr) (string, lockClass) {
	name := renderPath(pass, expr)
	last := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		last = name[i+1:]
	}
	if last == "syncMu" {
		return name, lockExempt
	}
	// The field mu of a Cluster is the table lock.
	if sel, ok := expr.(*ast.SelectorExpr); ok && last == "mu" {
		if t := pass.Info.TypeOf(sel.X); t != nil && typeName(t) == "Cluster" {
			return name, lockTable
		}
	}
	return name, lockOther
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// renderPath renders an ident/selector chain as "a.b.c"; non-path shapes
// fall back to a position-keyed name so distinct expressions stay distinct.
func renderPath(pass *Pass, expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderPath(pass, e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderPath(pass, e.X) + "[i]"
	case *ast.ParenExpr:
		return renderPath(pass, e.X)
	default:
		return fmt.Sprintf("expr@%d", pass.Fset.Position(expr.Pos()).Line)
	}
}
