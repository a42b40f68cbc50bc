package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint/analysis"
)

// MutexGuard checks the repo's "// guarded by <mu>" annotation: a struct
// field (or package-level variable) carrying that comment may only be
// read or written while the named mutex is held. The guard is either a
// sibling field ("guarded by mu"), a type-qualified field for structs
// touched through other structs' locks ("guarded by Registry.mu"), or a
// package-level mutex variable ("guarded by backendMu").
//
// Lock extents are tracked positionally: a Lock/RLock pairs with the next
// Unlock/RUnlock of the same mutex at the same or shallower block depth,
// and a deferred unlock extends the hold to the end of the function. A
// function whose name ends in "Locked" asserts the caller holds every
// guard, and accesses to a struct freshly built inside the function (its
// base variable is assigned from a composite literal there) are exempt —
// nothing else can see it yet. An RLock interval satisfies reads only.
var MutexGuard = &analysis.Analyzer{
	Name: "mutexguard",
	Doc: "check that fields annotated \"// guarded by <mu>\" are accessed with the mutex held\n\n" +
		"Guards may name a sibling field (mu), a qualified field (Registry.mu) or a package\n" +
		"variable (backendMu). *Locked func names mean the caller holds the lock; RLock\n" +
		"satisfies reads only.",
	Run: runMutexGuard,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

func runMutexGuard(pass *analysis.Pass) error {
	guards, varGuards := collectGuards(pass)
	if len(guards) == 0 && len(varGuards) == 0 {
		return nil
	}
	for _, fd := range funcDecls(pass.Files) {
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			continue
		}
		checkGuards(pass, fd, guards, varGuards)
	}
	return nil
}

// collectGuards maps annotated struct-field objects and annotated
// package-level variables to their guard expressions.
func collectGuards(pass *analysis.Pass) (map[*types.Var]string, map[types.Object]string) {
	guards := make(map[*types.Var]string)
	varGuards := make(map[types.Object]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				guard := guardFromComment(vs.Comment)
				if guard == "" {
					guard = guardFromComment(vs.Doc)
				}
				if guard == "" {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						varGuards[obj] = guard
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := guardFromComment(field.Comment)
				if guard == "" {
					guard = guardFromComment(field.Doc)
				}
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = guard
					}
				}
			}
			return true
		})
	}
	return guards, varGuards
}

func guardFromComment(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
		return m[1]
	}
	return ""
}

// lockKind distinguishes the four sync.(RW)Mutex transitions.
type lockKind int

const (
	kindLock lockKind = iota
	kindRLock
	kindUnlock
	kindRUnlock
)

// lockEvent is one Lock/Unlock-family call site inside a function body.
type lockEvent struct {
	keys     map[string]bool // canonical names for the mutex expression
	kind     lockKind
	pos      token.Pos
	depth    int  // enclosing blocks below the function body
	deferred bool // inside a defer statement (directly or via closure)
}

// heldInterval is a positional extent over which a mutex is held.
type heldInterval struct {
	keys       map[string]bool
	start, end token.Pos
	readOnly   bool // RLock: satisfies reads, not writes
}

// checkGuards verifies every guarded access in fd against the lock
// intervals computed from its body.
func checkGuards(pass *analysis.Pass, fd *ast.FuncDecl, guards map[*types.Var]string, varGuards map[types.Object]string) {
	info := pass.TypesInfo
	held := lockIntervals(pass, fd)
	fresh := freshObjects(info, fd)
	writes := writeTargets(fd)

	report := func(n ast.Node, expr ast.Expr, guard string) {
		isWrite := writes[n]
		for _, iv := range held {
			if iv.start <= n.Pos() && n.Pos() < iv.end && (!iv.readOnly || !isWrite) && intersects(iv.keys, guardKeysFor(pass, expr, guard)) {
				return
			}
		}
		verb := "read"
		if isWrite {
			verb = "written"
		}
		pass.Reportf(n.Pos(), "%s is %s without holding %s (marked \"guarded by %s\")",
			types.ExprString(expr), verb, guard, guard)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selection, ok := info.Selections[n]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			fieldObj, ok := selection.Obj().(*types.Var)
			if !ok {
				return true
			}
			// A field of an instantiated generic struct whose type mentions
			// a type parameter is a substituted copy; its annotation sits on
			// the declared field.
			guard, ok := guards[fieldObj.Origin()]
			if !ok {
				return true
			}
			if base, ok := n.X.(*ast.Ident); ok {
				if obj := info.Uses[base]; obj != nil && fresh[obj] {
					return true // freshly constructed here; not yet shared
				}
			}
			report(n, n, guard)
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			if guard, ok := varGuards[obj]; ok {
				report(n, n, guard)
			}
		}
		return true
	})
}

func intersects(a, b map[string]bool) bool {
	for k := range b {
		if a[k] {
			return true
		}
	}
	return false
}

// guardKeysFor canonicalizes the guard annotation for one concrete
// access. "Registry.mu" matches any lock of a Registry's mu field; a bare
// name is a package-level mutex if one exists, otherwise a sibling field
// matched both by the access's base expression text and by its base type.
func guardKeysFor(pass *analysis.Pass, expr ast.Expr, guard string) map[string]bool {
	keys := map[string]bool{}
	if strings.Contains(guard, ".") {
		keys[guard] = true
		return keys
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		keys[guard] = true
		return keys
	}
	if obj := pass.Pkg.Scope().Lookup(guard); obj != nil {
		if _, ok := obj.(*types.Var); ok {
			keys[guard] = true
			return keys
		}
	}
	keys[types.ExprString(sel.X)+"."+guard] = true
	if tn := namedTypeName(pass.TypesInfo, sel.X); tn != "" {
		keys[tn+"."+guard] = true
	}
	return keys
}

// namedTypeName returns the base named-type name of e (through pointers).
func namedTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// lockIntervals computes the held extents for every mutex fd manipulates.
func lockIntervals(pass *analysis.Pass, fd *ast.FuncDecl) []heldInterval {
	var events []lockEvent
	collectLockEvents(pass, fd.Body, 0, false, &events)

	var held []heldInterval
	consumed := make([]bool, len(events))
	for i, ev := range events {
		if ev.kind != kindLock && ev.kind != kindRLock {
			continue
		}
		wantKind := kindUnlock
		if ev.kind == kindRLock {
			wantKind = kindRUnlock
		}
		end := fd.Body.End()
		for j := i + 1; j < len(events); j++ {
			u := events[j]
			if consumed[j] || u.kind != wantKind || u.depth > ev.depth || !intersects(u.keys, ev.keys) {
				continue
			}
			consumed[j] = true
			if !u.deferred {
				end = u.pos
			}
			break
		}
		held = append(held, heldInterval{
			keys:     ev.keys,
			start:    ev.pos,
			end:      end,
			readOnly: ev.kind == kindRLock,
		})
	}
	return held
}

// collectLockEvents walks stmts recording (R)Lock/(R)Unlock calls on
// sync.Mutex/sync.RWMutex values, with block depth and defer context.
func collectLockEvents(pass *analysis.Pass, n ast.Node, depth int, deferred bool, out *[]lockEvent) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, s := range n.List {
			collectLockEvents(pass, s, depth+1, deferred, out)
		}
		return
	case *ast.DeferStmt:
		collectLockEvents(pass, n.Call, depth, true, out)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.BlockStmt:
			for _, s := range c.List {
				collectLockEvents(pass, s, depth+1, deferred, out)
			}
			return false
		case *ast.CallExpr:
			recordLockEvent(pass, c, depth, deferred, out)
		}
		return true
	})
}

// recordLockEvent appends an event if call is a mutex transition.
func recordLockEvent(pass *analysis.Pass, call *ast.CallExpr, depth int, deferred bool, out *[]lockEvent) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var kind lockKind
	switch sel.Sel.Name {
	case "Lock":
		kind = kindLock
	case "RLock":
		kind = kindRLock
	case "Unlock":
		kind = kindUnlock
	case "RUnlock":
		kind = kindRUnlock
	default:
		return
	}
	if !isSyncMutex(pass.TypesInfo, sel.X) {
		return
	}
	keys := map[string]bool{types.ExprString(sel.X): true}
	if mx, ok := sel.X.(*ast.SelectorExpr); ok {
		if tn := namedTypeName(pass.TypesInfo, mx.X); tn != "" {
			keys[tn+"."+mx.Sel.Name] = true
		}
	}
	*out = append(*out, lockEvent{keys: keys, kind: kind, pos: call.Pos(), depth: depth, deferred: deferred})
}

// isSyncMutex reports whether e is a sync.Mutex or sync.RWMutex value.
func isSyncMutex(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// freshObjects returns the local variables assigned from a composite
// literal inside fd: structs under construction, invisible to other
// goroutines until published, so guarded-field writes on them are safe.
func freshObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = u.X
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// writeTargets marks every selector and identifier that appears in a
// write position: an assignment LHS (including index bases like
// m.jobs[id] = j), an IncDec operand, or an address-of operand.
func writeTargets(fd *ast.FuncDecl) map[ast.Node]bool {
	writes := make(map[ast.Node]bool)
	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.SelectorExpr, *ast.Ident:
				writes[n] = true
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
	return writes
}
