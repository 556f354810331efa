package vet

// Interprocedural summary engine. The single-function rules in rules.go
// inspect one AST at a time; the lockheld and guardedby rules instead need
// to know what a *callee* does (block, invoke a callback, emit a trace
// event, acquire a lock) and what a caller *holds* at each call site. This
// file builds that knowledge: one funcSummary per function declaration and
// per function literal, produced by an abstract interpretation of the body
// that tracks the set of sync.Mutex/sync.RWMutex locks held at every
// statement, plus the module-wide closures over the static call graph
// (reachable operations, transitively acquired locks, goroutine-reachable
// functions) that the rules in rules_lock.go consume.
//
// Precision notes, in the direction of the trade-offs taken:
//
//   - Held-lock sets join by intersection at control-flow merges and drop
//     branches that terminate (return/panic/os.Exit), so `if bad { unlock;
//     return }` keeps the lock held on the fallthrough path.
//   - `defer mu.Unlock()` leaves the lock held for the rest of the body;
//     any other deferred call is treated as running at the defer site with
//     the current held set (matching the usual lock/defer-unlock idiom,
//     where later defers run before the unlock).
//   - A function literal that is immediately invoked or deferred is
//     analyzed inline under the current held set; a literal passed around
//     as a value gets its own summary starting from an empty held set.
//   - Calls through interfaces and into the standard library (other than
//     the explicitly modeled blocking operations) are analysis boundaries:
//     they neither block nor acquire locks as far as the engine knows.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

type lockID string

// opKind classifies the operations the lockheld rule forbids under a lock.
type opKind int

const (
	opBlock   opKind = iota // channel op, select, net I/O, time.Sleep, sync waits
	opDynCall               // call through a function value (user callback)
	opEmit                  // obs trace emit (method on obs.Origin)
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opBlock:
		return "blocking operation"
	case opDynCall:
		return "callback invocation"
	case opEmit:
		return "trace emit"
	}
	return "operation"
}

// funcOp is one forbidden-under-lock operation performed directly by a
// function, recorded with the locks held at that point (held may be empty:
// the operation still matters to callers that reach it while locked).
type funcOp struct {
	kind opKind
	pos  token.Pos
	desc string
	held map[lockID]bool
}

// callSite is one static call to a module-internal function.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   map[lockID]bool
}

// fieldAccess is one read or write of a guardedby-annotated struct field.
type fieldAccess struct {
	field *types.Var
	pos   token.Pos
	held  map[lockID]bool
}

// lockEdge records "to acquired while from was held" (from == to is an
// immediate self-deadlock).
type lockEdge struct {
	from, to lockID
	pos      token.Pos
}

// funcSummary is the per-function fact base.
type funcSummary struct {
	pkg  *Package
	fn   *types.Func // nil for function literals
	name string      // display name for findings

	ops        []funcOp
	calls      []callSite
	accesses   []fieldAccess
	edges      []lockEdge
	acquires   map[lockID]token.Pos // every lock this function acquires anywhere
	goTargets  []*types.Func        // static callees launched with `go`
	goLaunched bool                 // literal launched with `go` at its definition
}

// guardInfo is one resolved `xlinkvet:guardedby` field annotation.
type guardInfo struct {
	field    *types.Var
	spec     string // raw guard text from the annotation
	lock     lockID // resolved mutex identity ("" when confined or bad)
	confined bool   // guard keyword `confined`
	bad      string // non-empty: why the annotation failed to resolve
	pos      token.Pos
}

// engine holds the module-wide summaries and the memoized closures over
// the call graph.
type engine struct {
	pkgs []*Package
	sums []*funcSummary

	byFn      map[*types.Func]*funcSummary
	guards    map[*types.Var]*guardInfo
	guardErrs []Finding

	callSitesOf map[*types.Func][]callSite
	usesCount   map[*types.Func]int

	reachMemo map[*types.Func]*reachSet
	reachBusy map[*types.Func]bool
	acqMemo   map[*types.Func]map[lockID]token.Pos
	acqBusy   map[*types.Func]bool

	goReach map[*funcSummary]bool
}

// newEngine builds summaries for every function in pkgs (which must
// already exclude skipped packages) and the derived module-wide tables.
func newEngine(cfg *Config, pkgs []*Package) *engine {
	eng := &engine{
		pkgs:        pkgs,
		byFn:        map[*types.Func]*funcSummary{},
		guards:      map[*types.Var]*guardInfo{},
		callSitesOf: map[*types.Func][]callSite{},
		usesCount:   map[*types.Func]int{},
		reachMemo:   map[*types.Func]*reachSet{},
		reachBusy:   map[*types.Func]bool{},
		acqMemo:     map[*types.Func]map[lockID]token.Pos{},
		acqBusy:     map[*types.Func]bool{},
		goReach:     map[*funcSummary]bool{},
	}
	// Per-package summary construction is independent; run it in parallel
	// and splice the results back in package order so everything downstream
	// stays deterministic.
	perPkg := make([][]*funcSummary, len(pkgs))
	parallelDo(len(pkgs), func(i int) {
		perPkg[i] = summarizePackage(cfg, pkgs[i])
	})
	for _, sums := range perPkg {
		eng.sums = append(eng.sums, sums...)
	}
	for _, pkg := range pkgs {
		eng.collectGuards(pkg)
	}
	for _, sum := range eng.sums {
		if sum.fn != nil {
			eng.byFn[sum.fn] = sum
		}
	}
	for _, sum := range eng.sums {
		for _, cs := range sum.calls {
			eng.callSitesOf[cs.callee] = append(eng.callSitesOf[cs.callee], cs)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				eng.usesCount[fn]++
			}
		}
	}
	eng.computeGoReach()
	return eng
}

// summarizePackage walks every function declaration of one package.
func summarizePackage(cfg *Config, pkg *Package) []*funcSummary {
	var sums []*funcSummary
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
			sum := &funcSummary{
				pkg: pkg, fn: fn, name: declName(decl),
				acquires: map[lockID]token.Pos{},
			}
			w := &walker{cfg: cfg, pkg: pkg, sum: sum, out: &sums}
			w.addParams(decl.Type)
			f := newFlow()
			w.stmts(decl.Body.List, f)
			sums = append(sums, sum)
		}
	}
	return sums
}

// directiveArgs returns the whitespace-separated arguments following the
// directive in cg, or nil when the directive is absent. A bare directive
// returns an empty (non-nil) slice.
func directiveArgs(cg *ast.CommentGroup, directive string) []string {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, directive)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		args := strings.Fields(rest)
		if args == nil {
			args = []string{}
		}
		return args
	}
	return nil
}

func declName(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + decl.Name.Name
		}
	}
	return decl.Name.Name
}

// --- abstract flow state ---

type flow struct {
	held       map[lockID]bool
	terminated bool
}

func newFlow() *flow { return &flow{held: map[lockID]bool{}} }

func (f *flow) clone() *flow {
	c := &flow{held: make(map[lockID]bool, len(f.held)), terminated: f.terminated}
	for k := range f.held {
		c.held[k] = true
	}
	return c
}

func (f *flow) heldSnapshot() map[lockID]bool {
	if len(f.held) == 0 {
		return nil
	}
	c := make(map[lockID]bool, len(f.held))
	for k := range f.held {
		c[k] = true
	}
	return c
}

// joinInto merges branch outcomes back into f: the held set becomes the
// intersection of the non-terminated branches; if every branch terminated,
// f terminates too.
func joinInto(f *flow, branches ...*flow) {
	live := branches[:0:0]
	for _, b := range branches {
		if b != nil && !b.terminated {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		f.terminated = true
		return
	}
	held := map[lockID]bool{}
	for k := range live[0].held {
		all := true
		for _, b := range live[1:] {
			if !b.held[k] {
				all = false
				break
			}
		}
		if all {
			held[k] = true
		}
	}
	f.held = held
	f.terminated = false
}

// --- the walker ---

type walker struct {
	cfg *Config
	pkg *Package
	sum *funcSummary
	out *[]*funcSummary // sink for value-function-literal summaries

	// params holds the parameter objects of the function under analysis
	// (including enclosing literals' parameters): a call through one of
	// these, or through a struct field, is a callback invocation; a call
	// through a plain local (a helper closure) is not.
	params map[*types.Var]bool

	noChanOps int // >0 while walking a select comm clause (non-blocking there)
}

// addParams records the parameter objects declared by a function type so
// calls through them classify as callback invocations.
func (w *walker) addParams(ft *ast.FuncType) {
	if ft == nil || ft.Params == nil {
		return
	}
	if w.params == nil {
		w.params = map[*types.Var]bool{}
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := w.pkg.Info.Defs[name].(*types.Var); ok {
				w.params[v] = true
			}
		}
	}
}

func (w *walker) stmts(list []ast.Stmt, f *flow) {
	for _, s := range list {
		w.stmt(s, f)
	}
}

func (w *walker) stmt(s ast.Stmt, f *flow) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, f)
	case *ast.SendStmt:
		w.expr(s.Chan, f)
		w.expr(s.Value, f)
		if w.noChanOps == 0 {
			w.op(opBlock, s.Arrow, "channel send", f)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, f)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, f)
		}
		for _, e := range s.Lhs {
			w.expr(e, f)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, f)
					}
				}
			}
		}
	case *ast.GoStmt:
		w.goStmt(s, f)
	case *ast.DeferStmt:
		w.deferStmt(s, f)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, f)
		}
		f.terminated = true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct; treating the
		// path as terminated keeps it out of intersection joins.
		f.terminated = true
	case *ast.BlockStmt:
		w.stmts(s.List, f)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, f)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, f)
		}
		w.expr(s.Cond, f)
		thenF := f.clone()
		elseF := f.clone()
		w.stmt(s.Body, thenF)
		if s.Else != nil {
			w.stmt(s.Else, elseF)
		}
		joinInto(f, thenF, elseF)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, f)
		}
		if s.Cond != nil {
			w.expr(s.Cond, f)
		}
		bodyF := f.clone()
		w.stmt(s.Body, bodyF)
		if s.Post != nil {
			w.stmt(s.Post, bodyF)
		}
		// The body may run zero times; a body that terminates every path
		// (e.g. an unconditional return inside `for {}`) contributes
		// nothing to the fallthrough state.
		if s.Cond == nil && bodyF.terminated {
			f.terminated = true
		} else {
			joinInto(f, f.clone(), bodyF)
		}
	case *ast.RangeStmt:
		w.expr(s.X, f)
		if tv, ok := w.pkg.Info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				if w.noChanOps == 0 {
					w.op(opBlock, s.For, "range over channel", f)
				}
			}
		}
		bodyF := f.clone()
		w.stmt(s.Body, bodyF)
		joinInto(f, f.clone(), bodyF)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, f)
		}
		if s.Tag != nil {
			w.expr(s.Tag, f)
		}
		w.caseClauses(s.Body, f, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, f)
		}
		w.stmt(s.Assign, f)
		w.caseClauses(s.Body, f, false)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.op(opBlock, s.Select, "select", f)
		}
		var outs []*flow
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := f.clone()
			if cc.Comm != nil {
				// The comm op of a clause is the select's own (possibly
				// non-blocking) rendezvous, already accounted for above.
				w.noChanOps++
				w.stmt(cc.Comm, branch)
				w.noChanOps--
			}
			w.stmts(cc.Body, branch)
			outs = append(outs, branch)
		}
		if len(outs) > 0 {
			joinInto(f, outs...)
		}
	case *ast.EmptyStmt:
	}
}

// caseClauses walks a switch body; a switch without a default clause may
// also fall through with the pre-switch state.
func (w *walker) caseClauses(body *ast.BlockStmt, f *flow, _ bool) {
	hasDefault := false
	var outs []*flow
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.expr(e, f)
		}
		branch := f.clone()
		w.stmts(cc.Body, branch)
		outs = append(outs, branch)
	}
	if !hasDefault {
		outs = append(outs, f.clone())
	}
	if len(outs) > 0 {
		joinInto(f, outs...)
	}
}

func (w *walker) goStmt(s *ast.GoStmt, f *flow) {
	for _, a := range s.Call.Args {
		w.expr(a, f)
	}
	// An `xlinkvet:confines` spawn constructs every confined structure it
	// drives (e.g. a worker running complete self-contained sessions), so it
	// does not seed the goroutine-reachability set guardedby's confined
	// discipline checks.
	confines := w.pkg.confinesLine(w.pkg.Fset.Position(s.Go))
	switch fun := s.Call.Fun.(type) {
	case *ast.FuncLit:
		w.valueLit(fun, !confines)
	default:
		w.expr(fun, f) // records guarded-field reads in e.g. `go x.f.m()`
		if fn := w.staticCallee(s.Call); fn != nil && !confines {
			w.sum.goTargets = append(w.sum.goTargets, fn)
		}
	}
}

func (w *walker) deferStmt(s *ast.DeferStmt, f *flow) {
	call := s.Call
	if id, name := w.lockMethod(call); id != "" && (name == "Unlock" || name == "RUnlock") {
		// `defer mu.Unlock()`: the lock stays held for the rest of the body.
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// A deferred literal runs at exit; under the lock/defer-unlock idiom
		// the current held set is the best approximation of that moment.
		w.inlineLit(lit, f)
		for _, a := range call.Args {
			w.expr(a, f)
		}
		return
	}
	w.call(call, f)
}

func (w *walker) expr(e ast.Expr, f *flow) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, f)
	case *ast.UnaryExpr:
		w.expr(e.X, f)
		if e.Op == token.ARROW {
			if w.noChanOps == 0 {
				w.op(opBlock, e.OpPos, "channel receive", f)
			}
		}
	case *ast.BinaryExpr:
		w.expr(e.X, f)
		w.expr(e.Y, f)
	case *ast.SelectorExpr:
		w.expr(e.X, f)
		w.access(e.Sel, f)
	case *ast.FuncLit:
		w.valueLit(e, false)
	case *ast.CompositeLit:
		structLit := false
		if tv, ok := w.pkg.Info.Types[e]; ok && tv.Type != nil {
			_, structLit = tv.Type.Underlying().(*types.Struct)
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// Struct-literal keys name fields of a value under
				// construction, which is not yet shared: not an access.
				if !structLit {
					w.expr(kv.Key, f)
				}
				w.expr(kv.Value, f)
				continue
			}
			w.expr(el, f)
		}
	case *ast.ParenExpr:
		w.expr(e.X, f)
	case *ast.StarExpr:
		w.expr(e.X, f)
	case *ast.IndexExpr:
		w.expr(e.X, f)
		w.expr(e.Index, f)
	case *ast.IndexListExpr:
		w.expr(e.X, f)
		for _, i := range e.Indices {
			w.expr(i, f)
		}
	case *ast.SliceExpr:
		w.expr(e.X, f)
		w.expr(e.Low, f)
		w.expr(e.High, f)
		w.expr(e.Max, f)
	case *ast.TypeAssertExpr:
		w.expr(e.X, f)
	case *ast.KeyValueExpr:
		w.expr(e.Key, f)
		w.expr(e.Value, f)
	}
}

// access records ident (a selector's Sel) when it resolves to an annotated
// field. Guard resolution happens later in the engine; the walker records
// every field use so the table can be built in one pass.
func (w *walker) access(sel *ast.Ident, f *flow) {
	v, ok := w.pkg.Info.Uses[sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	w.sum.accesses = append(w.sum.accesses, fieldAccess{
		field: v, pos: sel.Pos(), held: f.heldSnapshot(),
	})
}

// valueLit summarizes a function literal that escapes as a value (callback
// registration, timer body, goroutine body): it runs later, so its held
// set starts empty.
func (w *walker) valueLit(lit *ast.FuncLit, goLaunched bool) {
	sum := &funcSummary{
		pkg:        w.pkg,
		name:       "function literal in " + w.sum.name,
		acquires:   map[lockID]token.Pos{},
		goLaunched: goLaunched,
	}
	lw := &walker{cfg: w.cfg, pkg: w.pkg, sum: sum, out: w.out, params: w.params}
	lw.addParams(lit.Type)
	lw.stmts(lit.Body.List, newFlow())
	*w.out = append(*w.out, sum)
}

// inlineLit walks a literal that executes within the current flow
// (immediately invoked or deferred), charging its operations to the
// enclosing function under the current held set.
func (w *walker) inlineLit(lit *ast.FuncLit, f *flow) {
	w.addParams(lit.Type)
	inner := f.clone()
	w.stmts(lit.Body.List, inner)
}

func (w *walker) op(kind opKind, pos token.Pos, desc string, f *flow) {
	w.sum.ops = append(w.sum.ops, funcOp{kind: kind, pos: pos, desc: desc, held: f.heldSnapshot()})
}

// call classifies one call expression: sync lock operations mutate the
// held set; modeled std-library operations record ops; module-internal
// static calls record call sites; calls through function values record
// callback invocations.
func (w *walker) call(call *ast.CallExpr, f *flow) {
	// Type conversions are not calls.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		w.expr(call.Fun, f)
		for _, a := range call.Args {
			w.expr(a, f)
		}
		return
	}
	if id, name := w.lockMethod(call); id != "" {
		// Walk the receiver chain for guarded-field accesses (`c.box.mu` is
		// a use of c.box), then apply the lock transition.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			w.expr(sel.X, f)
		}
		w.lockOp(id, name, call.Pos(), f)
		return
	}

	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Immediately invoked literal: part of this flow.
		w.inlineLit(lit, f)
		for _, a := range call.Args {
			w.expr(a, f)
		}
		return
	}

	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = w.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		w.expr(fun.X, f)
		callee = w.pkg.Info.Uses[fun.Sel]
	default:
		w.expr(call.Fun, f)
	}

	for _, a := range call.Args {
		w.expr(a, f)
	}

	switch obj := callee.(type) {
	case *types.Builtin:
		if obj.Name() == "panic" {
			f.terminated = true
		}
	case *types.Func:
		w.staticCall(obj, call, f)
	case *types.Var:
		// A call through a function-typed field or parameter is a callback
		// invocation: the value was injected from outside and may re-enter.
		// Calls through plain locals (helper closures bound in this
		// function) are not — their bodies were already summarized.
		if _, ok := obj.Type().Underlying().(*types.Signature); ok {
			if obj.IsField() || w.params[obj] {
				w.op(opDynCall, call.Pos(), "call through function value "+obj.Name(), f)
			}
		}
	case nil:
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			f.terminated = true
		}
	}
}

// staticCall records what a resolved *types.Func callee means for the
// summary: a modeled blocking std-library operation, a trace emit, a
// terminating call, or a module-internal call edge.
func (w *walker) staticCall(fn *types.Func, call *ast.CallExpr, f *flow) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // a universe-scope method such as error.Error
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Sleep" {
			w.op(opBlock, call.Pos(), "time.Sleep", f)
		}
		return
	case "net":
		if netBlocking[fn.Name()] {
			w.op(opBlock, call.Pos(), "net."+fn.Name()+" I/O", f)
		}
		return
	case "sync":
		if fn.Name() == "Wait" {
			w.op(opBlock, call.Pos(), "sync "+recvTypeName(fn)+".Wait", f)
		}
		return
	case "os":
		if fn.Name() == "Exit" {
			f.terminated = true
		}
		return
	case "runtime":
		if fn.Name() == "Goexit" {
			f.terminated = true
		}
		return
	}
	if matchPkg(pkg.Path(), w.cfg.ObsPkgs) && recvTypeName(fn) == "Origin" {
		w.op(opEmit, call.Pos(), "obs trace emit "+fn.Name(), f)
		return
	}
	// Module-internal static call (methods included). Interface methods
	// resolve to *types.Func too but never have a summary; the engine
	// treats them as leaves.
	w.sum.calls = append(w.sum.calls, callSite{
		callee: fn, pos: call.Pos(), held: f.heldSnapshot(),
	})
}

// netBlocking names the net package calls modeled as blocking I/O. Pure
// accessors (IP.Equal, Conn.LocalAddr, UDPAddr.String, ...) stay exempt:
// they only read already-resolved state.
var netBlocking = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true, "ReadMsgUDP": true, "WriteMsgUDP": true,
	"ReadFromUDPAddrPort": true, "WriteToUDPAddrPort": true,
	"Close": true, "Accept": true, "AcceptTCP": true,
	"Dial": true, "DialTimeout": true, "DialUDP": true, "DialTCP": true, "DialIP": true,
	"Listen": true, "ListenUDP": true, "ListenTCP": true, "ListenPacket": true, "ListenIP": true,
	"LookupHost": true, "LookupAddr": true, "LookupIP": true, "LookupPort": true,
	"ResolveUDPAddr": true, "ResolveTCPAddr": true, "ResolveIPAddr": true,
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// lockMethod reports whether call is a method call on a sync.Mutex or
// sync.RWMutex, returning the lock identity and the method name.
func (w *walker) lockMethod(call *ast.CallExpr) (lockID, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "" // TryLock etc: conditional, not modeled
	}
	return w.lockIdentity(sel.X), fn.Name()
}

// lockIdentity names a mutex stably across functions: a field mutex by its
// declaring type ("pkg.Type.field"), a package-level or local variable by
// its declaration site.
func (w *walker) lockIdentity(x ast.Expr) lockID {
	switch v := x.(type) {
	case *ast.SelectorExpr:
		if tv, ok := w.pkg.Info.Types[v.X]; ok && tv.Type != nil {
			t := tv.Type
			for {
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lockID(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Sel.Name)
			}
		}
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[v]; obj != nil && obj.Pkg() != nil {
			p := w.pkg.Fset.Position(obj.Pos())
			return lockID(fmt.Sprintf("%s.%s@%s:%d", obj.Pkg().Path(), v.Name, filepath.Base(p.Filename), p.Line))
		}
	case *ast.ParenExpr:
		return w.lockIdentity(v.X)
	}
	return ""
}

// lockOp applies one Lock/Unlock transition to the flow and records
// acquisition facts for the ordering analysis. RLock counts as holding
// the same lock: blocking and guarded-field rules apply to readers too.
func (w *walker) lockOp(id lockID, name string, pos token.Pos, f *flow) {
	switch name {
	case "Lock", "RLock":
		for held := range f.held {
			w.sum.edges = append(w.sum.edges, lockEdge{from: held, to: id, pos: pos})
		}
		if _, ok := w.sum.acquires[id]; !ok {
			w.sum.acquires[id] = pos
		}
		f.held[id] = true
	case "Unlock", "RUnlock":
		delete(f.held, id)
	}
}

// staticCallee resolves a call's target to a *types.Func if possible.
func (w *walker) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := w.pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := w.pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// --- guardedby annotation collection ---

const guardedByDirective = "xlinkvet:guardedby"

// collectGuards parses `xlinkvet:guardedby <guard>` annotations on struct
// fields of named types. The guard is either the keyword `confined` or a
// dot path of fields, relative to the annotated struct, ending at a
// sync.Mutex/sync.RWMutex (e.g. `mu`, `ep.mu`).
func (eng *engine) collectGuards(pkg *Package) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				for _, field := range st.Fields.List {
					spec := guardSpecOf(field)
					if spec == "" {
						continue
					}
					for _, name := range field.Names {
						fv, _ := pkg.Info.Defs[name].(*types.Var)
						if fv == nil {
							continue
						}
						gi := &guardInfo{field: fv, spec: spec, pos: name.Pos()}
						eng.resolveGuard(pkg, tn, gi)
						eng.guards[fv] = gi
						if gi.bad != "" {
							eng.guardErrs = append(eng.guardErrs, Finding{
								Pos:  pkg.Fset.Position(name.Pos()),
								Rule: "guardedby",
								Msg: fmt.Sprintf("cannot resolve xlinkvet:guardedby guard %q on field %s: %s",
									spec, name.Name, gi.bad),
							})
						}
					}
				}
			}
		}
	}
}

// guardSpecOf extracts the guard text from a field's doc or line comment.
func guardSpecOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if args := directiveArgs(cg, guardedByDirective); len(args) > 0 {
			return args[0]
		}
	}
	return ""
}

// resolveGuard fills gi.lock / gi.confined / gi.bad.
func (eng *engine) resolveGuard(pkg *Package, owner *types.TypeName, gi *guardInfo) {
	if gi.spec == "confined" {
		gi.confined = true
		return
	}
	if owner == nil {
		gi.bad = "no type information for the annotated struct"
		return
	}
	cur := owner.Type()
	segs := strings.Split(gi.spec, ".")
	for i, seg := range segs {
		named := derefNamed(cur)
		if named == nil {
			gi.bad = fmt.Sprintf("segment %q: not a named struct", seg)
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			gi.bad = fmt.Sprintf("segment %q: %s is not a struct", seg, named.Obj().Name())
			return
		}
		var fv *types.Var
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == seg {
				fv = st.Field(j)
				break
			}
		}
		if fv == nil {
			gi.bad = fmt.Sprintf("no field %q in %s", seg, named.Obj().Name())
			return
		}
		if i == len(segs)-1 {
			if !isMutexType(fv.Type()) {
				gi.bad = fmt.Sprintf("field %q is not a sync.Mutex or sync.RWMutex", seg)
				return
			}
			gi.lock = lockID(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + seg)
			return
		}
		cur = fv.Type()
	}
}

func derefNamed(t types.Type) *types.Named {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, _ := t.(*types.Named)
	return named
}

func isMutexType(t types.Type) bool {
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// --- call-graph closures ---

// opRef is the nearest reachable forbidden operation of one kind, with the
// call chain that leads to it.
type opRef struct {
	pos  token.Pos
	desc string
	via  []string
}

type reachSet struct {
	byKind [numOpKinds]*opRef
}

// reach returns the operations reachable from fn through synchronous
// module-internal calls (including fn's own operations, whatever its local
// held state — the caller's held set is what matters).
func (eng *engine) reach(fn *types.Func) *reachSet {
	if rs, ok := eng.reachMemo[fn]; ok {
		return rs
	}
	if eng.reachBusy[fn] {
		return &reachSet{} // recursion: the cycle's ops are found elsewhere
	}
	eng.reachBusy[fn] = true
	defer delete(eng.reachBusy, fn)

	rs := &reachSet{}
	sum := eng.byFn[fn]
	if sum == nil {
		eng.reachMemo[fn] = rs
		return rs
	}
	for _, op := range sum.ops {
		if rs.byKind[op.kind] == nil {
			rs.byKind[op.kind] = &opRef{pos: op.pos, desc: op.desc}
		}
	}
	for _, cs := range sum.calls {
		sub := eng.reach(cs.callee)
		for k := opKind(0); k < numOpKinds; k++ {
			if rs.byKind[k] != nil || sub.byKind[k] == nil {
				continue
			}
			via := append([]string{cs.callee.Name()}, sub.byKind[k].via...)
			if len(via) > 5 {
				via = via[:5]
			}
			rs.byKind[k] = &opRef{pos: sub.byKind[k].pos, desc: sub.byKind[k].desc, via: via}
		}
	}
	eng.reachMemo[fn] = rs
	return rs
}

// transAcquires returns every lock fn acquires directly or through
// synchronous module-internal callees, with a representative position.
func (eng *engine) transAcquires(fn *types.Func) map[lockID]token.Pos {
	if m, ok := eng.acqMemo[fn]; ok {
		return m
	}
	if eng.acqBusy[fn] {
		return nil
	}
	eng.acqBusy[fn] = true
	defer delete(eng.acqBusy, fn)

	m := map[lockID]token.Pos{}
	sum := eng.byFn[fn]
	if sum == nil {
		eng.acqMemo[fn] = m
		return m
	}
	for id, pos := range sum.acquires {
		m[id] = pos
	}
	for _, cs := range sum.calls {
		for id := range eng.transAcquires(cs.callee) {
			if _, ok := m[id]; !ok {
				m[id] = cs.pos
			}
		}
	}
	eng.acqMemo[fn] = m
	return m
}

// computeGoReach marks every summary reachable from a `go` launch through
// call sites that hold no lock. Propagation stops at locked call sites: a
// goroutine that acquires a lock before calling onward has re-serialized,
// which is exactly what `guardedby confined` permits.
func (eng *engine) computeGoReach() {
	var queue []*funcSummary
	mark := func(s *funcSummary) {
		if s != nil && !eng.goReach[s] {
			eng.goReach[s] = true
			queue = append(queue, s)
		}
	}
	for _, sum := range eng.sums {
		if sum.goLaunched {
			mark(sum)
		}
		for _, t := range sum.goTargets {
			mark(eng.byFn[t])
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, cs := range s.calls {
			if len(cs.held) == 0 {
				mark(eng.byFn[cs.callee])
			}
		}
	}
}

// heldNames formats a held set for findings.
func heldNames(held map[lockID]bool) string {
	names := make([]string, 0, len(held))
	for id := range held {
		names = append(names, string(id))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
