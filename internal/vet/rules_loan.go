package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// --- rule: loan ---
//
// A parameter or return value annotated `// xlinkvet:loan <param>...` /
// `// xlinkvet:loan return` is a loaned buffer: it aliases caller- or
// callee-owned scratch (DESIGN.md §11) and is valid only for the duration
// of the call. The borrower may read it, slice it, and copy out of it, but
// may not retain it: storing the loan — or any alias derived by slicing,
// field selection, or an append over it — into a heap-resident field, a
// package-level variable, a map, a channel, a goroutine, or a closure is a
// finding. `copy(dst, loan)` and spread appends `append(owned, loan...)`
// are the sanctioned escape hatches: they copy the bytes, not the header.
//
// Loan facts propagate through call summaries: a per-function retention
// table (which parameters does this function stash, directly or through
// its own callees?) is computed to a fixpoint over the module, so handing
// a loan to a helper that retains it is reported at the annotated
// boundary's call site, with the helper's retention site in the message.
//
// Annotating an *interface* method (e.g. DatagramSender.SendBatch)
// applies the loan contract to every module-internal implementation of
// that interface.

// loanSpec is one function's loan annotation: which parameters and result
// values are loaned.
type loanSpec struct {
	params  map[int]bool
	results map[int]bool
}

func (s *loanSpec) loanedParam(i int) bool  { return s != nil && s.params[i] }
func (s *loanSpec) loanedResult(i int) bool { return s != nil && s.results[i] }

// collectLoans parses `xlinkvet:loan` directives on function declarations
// and interface methods of one package.
func (eng *engine) collectLoans(pkg *Package) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if args := directiveArgs(d.Doc, loanDirective); args != nil {
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						eng.addLoan(pkg, fn, d.Name.Pos(), args)
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok || it.Methods == nil {
						continue
					}
					for _, m := range it.Methods.List {
						if len(m.Names) != 1 {
							continue
						}
						args := directiveArgs(m.Doc, loanDirective)
						if args == nil {
							args = directiveArgs(m.Comment, loanDirective)
						}
						if args == nil {
							continue
						}
						if fn, ok := pkg.Info.Defs[m.Names[0]].(*types.Func); ok {
							eng.addLoan(pkg, fn, m.Names[0].Pos(), args)
						}
					}
				}
			}
		}
	}
}

// addLoan resolves one directive's arguments (parameter names or the
// keyword `return`) against the function signature.
func (eng *engine) addLoan(pkg *Package, fn *types.Func, pos token.Pos, args []string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	spec := eng.loans[fn]
	if spec == nil {
		spec = &loanSpec{params: map[int]bool{}, results: map[int]bool{}}
		eng.loans[fn] = spec
	}
	if len(args) == 0 {
		eng.loanErrs = append(eng.loanErrs, Finding{
			Pos: pkg.Fset.Position(pos), Rule: "loan",
			Msg: fmt.Sprintf("xlinkvet:loan on %s names no parameter (use parameter names or the keyword `return`)", fn.Name()),
		})
		return
	}
	for _, a := range args {
		if a == "return" {
			for i := 0; i < sig.Results().Len(); i++ {
				if loanable(sig.Results().At(i).Type()) {
					spec.results[i] = true
				}
			}
			continue
		}
		found := false
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i).Name() == a {
				spec.params[i] = true
				found = true
				break
			}
		}
		if !found {
			eng.loanErrs = append(eng.loanErrs, Finding{
				Pos: pkg.Fset.Position(pos), Rule: "loan",
				Msg: fmt.Sprintf("xlinkvet:loan on %s names unknown parameter %q", fn.Name(), a),
			})
		}
	}
}

// inheritInterfaceLoans applies loan annotations declared on interface
// methods to every module-internal method implementing them.
func (eng *engine) inheritInterfaceLoans() {
	type ifaceLoan struct {
		name  string
		iface *types.Interface
		spec  *loanSpec
	}
	var ifaceLoans []ifaceLoan
	for fn, spec := range eng.loans {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			ifaceLoans = append(ifaceLoans, ifaceLoan{name: fn.Name(), iface: it, spec: spec})
		}
	}
	if len(ifaceLoans) == 0 {
		return
	}
	for _, sum := range eng.sums {
		if sum.fn == nil {
			continue
		}
		sig, ok := sum.fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if _, isIface := recv.Underlying().(*types.Interface); isIface {
			continue
		}
		for _, il := range ifaceLoans {
			if sum.fn.Name() != il.name || !types.Implements(recv, il.iface) {
				continue
			}
			spec := eng.loans[sum.fn]
			if spec == nil {
				spec = &loanSpec{params: map[int]bool{}, results: map[int]bool{}}
				eng.loans[sum.fn] = spec
			}
			for i := range il.spec.params {
				spec.params[i] = true
			}
			for i := range il.spec.results {
				spec.results[i] = true
			}
		}
	}
}

// loanable reports whether a value of type t can carry a loan: a slice, or
// a struct holding one (e.g. recovery.AckResult).
func loanable(t types.Type) bool { return loanableDepth(t, 2) }

func loanableDepth(t types.Type, depth int) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Struct:
		if depth == 0 {
			return false
		}
		for i := 0; i < u.NumFields(); i++ {
			if loanableDepth(u.Field(i).Type(), depth-1) {
				return true
			}
		}
	}
	return false
}

// loanRetention is where (and how) a function retains one of its
// parameters past the call.
type loanRetention struct {
	pos  token.Pos
	desc string
}

func checkLoan(eng *engine) []Finding {
	// Per-function parameter-retention table, to a fixpoint: an entry
	// appears when a function stores the parameter directly, or passes it
	// to a callee whose entry appeared in an earlier round.
	retains := map[*types.Func][]*loanRetention{}
	for _, sum := range eng.sums {
		if sum.fn == nil {
			continue
		}
		if sig, ok := sum.fn.Type().(*types.Signature); ok {
			retains[sum.fn] = make([]*loanRetention, sig.Params().Len())
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range eng.sums {
			if sum.fn == nil {
				continue
			}
			lw := newLoanWalker(eng, sum, retains, nil)
			lw.run()
			for i, r := range lw.paramRetention {
				if r != nil && retains[sum.fn][i] == nil {
					retains[sum.fn][i] = r
					changed = true
				}
			}
		}
	}

	// Findings pass: report retention of annotated loans (own parameters
	// and values returned by loan-annotated callees), once per loan.
	out := append([]Finding(nil), eng.loanErrs...)
	for _, sum := range eng.sums {
		if sum.fn == nil {
			continue
		}
		lw := newLoanWalker(eng, sum, retains, &out)
		lw.run()
	}
	return out
}

// loanOrigin identifies one tracked loan inside a function: a parameter
// (paramIdx >= 0) or a loaned return value from a callee (paramIdx == -1).
// All aliases of the loan share the origin, so each loan reports at most
// once.
type loanOrigin struct {
	paramIdx  int
	what      string
	annotated bool
	reported  bool
}

// loanWalker performs the per-function alias/retention analysis.
type loanWalker struct {
	eng     *engine
	sum     *funcSummary
	retains map[*types.Func][]*loanRetention

	loaned         map[types.Object]*loanOrigin
	paramRetention []*loanRetention
	findings       *[]Finding // nil during the fixpoint rounds
}

func newLoanWalker(eng *engine, sum *funcSummary, retains map[*types.Func][]*loanRetention, findings *[]Finding) *loanWalker {
	return &loanWalker{
		eng: eng, sum: sum, retains: retains,
		loaned:   map[types.Object]*loanOrigin{},
		findings: findings,
	}
}

func (lw *loanWalker) run() {
	decl, ok := lw.sum.node.(*ast.FuncDecl)
	if !ok || decl.Body == nil {
		return
	}
	sig, _ := lw.sum.fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	lw.paramRetention = make([]*loanRetention, sig.Params().Len())
	spec := lw.eng.loans[lw.sum.fn]

	// Seed every loanable parameter; only annotated ones produce findings,
	// the rest feed the retention table.
	idx := 0
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := lw.sum.pkg.Info.Defs[name].(*types.Var); ok {
					if loanable(v.Type()) {
						lw.loaned[v] = &loanOrigin{
							paramIdx:  idx,
							what:      fmt.Sprintf("parameter %s of %s", name.Name, lw.sum.name),
							annotated: spec.loanedParam(idx),
						}
					}
					idx++
				}
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	lw.stmt(decl.Body)
}

// sink records that a loan escapes at pos: into the retention table for
// parameter loans, and as a finding when the loan is annotated.
func (lw *loanWalker) sink(origin *loanOrigin, pos token.Pos, desc string) {
	if origin.paramIdx >= 0 && lw.paramRetention[origin.paramIdx] == nil {
		lw.paramRetention[origin.paramIdx] = &loanRetention{pos: pos, desc: desc}
	}
	if lw.findings != nil && origin.annotated && !origin.reported {
		origin.reported = true
		*lw.findings = append(*lw.findings, Finding{
			Pos:  lw.sum.pkg.Fset.Position(pos),
			Rule: "loan",
			Msg: fmt.Sprintf("%s is loaned (xlinkvet:loan) and valid only for the duration of the call, but is %s; copy into owned storage first (DESIGN.md §11)",
				origin.what, desc),
		})
	}
}

func (lw *loanWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			lw.stmt(st)
		}
	case *ast.LabeledStmt:
		lw.stmt(s.Stmt)
	case *ast.ExprStmt:
		lw.scanExpr(s.X)
	case *ast.AssignStmt:
		lw.assign(s.Lhs, s.Rhs, s.Tok == token.DEFINE)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					lw.assign(lhs, vs.Values, true)
				}
			}
		}
	case *ast.SendStmt:
		lw.scanExpr(s.Value)
		if origin := lw.loanedExpr(s.Value); origin != nil {
			lw.sink(origin, s.Arrow, "sent on a channel")
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			lw.scanExpr(a)
			if origin := lw.loanedExpr(a); origin != nil {
				lw.sink(origin, a.Pos(), "passed to a goroutine")
			}
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lw.captureScan(lit, "captured by a goroutine")
		}
	case *ast.DeferStmt:
		lw.scanExpr(s.Call)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lw.scanExpr(e)
		}
	case *ast.IfStmt:
		lw.stmt(s.Init)
		lw.scanExpr(s.Cond)
		lw.stmt(s.Body)
		lw.stmt(s.Else)
	case *ast.ForStmt:
		lw.stmt(s.Init)
		lw.scanExpr(s.Cond)
		lw.stmt(s.Body)
		lw.stmt(s.Post)
	case *ast.RangeStmt:
		lw.scanExpr(s.X)
		// Ranging over a loaned slice of slices hands out loaned elements.
		if origin := lw.loanedExpr(s.X); origin != nil {
			if v, ok := s.Value.(*ast.Ident); ok && v.Name != "_" {
				if obj, ok := lw.sum.pkg.Info.Defs[v].(*types.Var); ok && loanable(obj.Type()) {
					lw.loaned[obj] = origin
				}
			}
		}
		lw.stmt(s.Body)
	case *ast.SwitchStmt:
		lw.stmt(s.Init)
		lw.scanExpr(s.Tag)
		lw.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		lw.stmt(s.Init)
		lw.stmt(s.Assign)
		lw.stmt(s.Body)
	case *ast.SelectStmt:
		lw.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			lw.scanExpr(e)
		}
		for _, st := range s.Body {
			lw.stmt(st)
		}
	case *ast.CommClause:
		lw.stmt(s.Comm)
		for _, st := range s.Body {
			lw.stmt(st)
		}
	case *ast.IncDecStmt:
		lw.scanExpr(s.X)
	}
	// Switch/select bodies are BlockStmts of clauses; the clause cases above
	// handle them when reached through stmt.
	if bs, ok := s.(*ast.SwitchStmt); ok {
		_ = bs
	}
}

// assign applies one (possibly parallel) assignment: sinks for loaned
// values stored into heap-resident places, alias bookkeeping for ident
// targets, and loaned-return seeding for calls to annotated callees.
func (lw *loanWalker) assign(lhs, rhs []ast.Expr, define bool) {
	for _, e := range rhs {
		lw.scanExpr(e)
	}
	// Multi-value form: x, y, err := call(...) — seed loaned results.
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			if fn := lw.staticCallee(call); fn != nil {
				if spec := lw.eng.loans[fn]; spec != nil {
					for i, l := range lhs {
						if !spec.loanedResult(i) {
							continue
						}
						if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
							if obj := lw.defOrUse(id, define); obj != nil {
								lw.loaned[obj] = &loanOrigin{
									paramIdx:  -1,
									what:      fmt.Sprintf("value returned by %s", fn.Name()),
									annotated: true,
								}
							}
						}
					}
				}
			}
		}
		return
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		origin := lw.loanedExpr(rhs[i])
		switch l := l.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			obj := lw.defOrUse(l, define)
			if obj == nil {
				continue
			}
			if origin == nil {
				delete(lw.loaned, obj)
				continue
			}
			if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
				lw.sink(origin, l.Pos(), "stored in package-level variable "+l.Name)
				continue
			}
			lw.loaned[obj] = origin
		case *ast.SelectorExpr:
			if origin == nil {
				continue
			}
			// A field of a local struct *value* lives in the frame: the loan
			// now rides in the local (tracked), it has not escaped. Only
			// stores through pointers, fields, and globals are heap-resident.
			if base, ok := unparen(l.X).(*ast.Ident); ok {
				if v, ok := lw.sum.pkg.Info.Uses[base].(*types.Var); ok &&
					!v.IsField() && !isPackageLevel(v) {
					if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
						lw.loaned[v] = origin
						continue
					}
				}
			}
			lw.sink(origin, l.Pos(), "stored in field "+l.Sel.Name)
		case *ast.StarExpr:
			if origin != nil {
				lw.sink(origin, l.Pos(), "stored through a pointer")
			}
		case *ast.IndexExpr:
			if origin != nil {
				desc := "stored in a slice element"
				if tv, ok := lw.sum.pkg.Info.Types[l.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						desc = "stored in a map"
					}
				}
				lw.sink(origin, l.Pos(), desc)
			}
		}
	}
}

// defOrUse resolves an assignment target ident.
func (lw *loanWalker) defOrUse(id *ast.Ident, define bool) types.Object {
	if define {
		if obj := lw.sum.pkg.Info.Defs[id]; obj != nil {
			return obj
		}
	}
	return lw.sum.pkg.Info.Uses[id]
}

// scanExpr visits an expression tree for sinks that live inside
// expressions: retaining calls and capturing function literals.
func (lw *loanWalker) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			lw.callSinks(n)
		case *ast.FuncLit:
			lw.captureScan(n, "captured by a function literal")
			return false
		}
		return true
	})
}

// callSinks flags loaned arguments that a call retains: element appends
// (the slice header escapes into the backing array) and calls to module
// functions whose retention table says the parameter is stashed.
// copy(dst, loan) and spread appends are the sanctioned copies.
func (lw *loanWalker) callSinks(call *ast.CallExpr) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := lw.sum.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy":
				return
			case "append":
				if call.Ellipsis.IsValid() {
					return // append(owned, loan...) copies the elements
				}
				for _, a := range call.Args[1:] {
					if origin := lw.loanedExpr(a); origin != nil {
						lw.sink(origin, a.Pos(), "appended as a slice element (the header escapes)")
					}
				}
				return
			default:
				return
			}
		}
	}
	fn := lw.staticCallee(call)
	if fn == nil {
		return
	}
	rets := lw.retains[fn]
	if rets == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	n := sig.Params().Len()
	for i, a := range call.Args {
		origin := lw.loanedExpr(a)
		if origin == nil {
			continue
		}
		pi := i
		if sig.Variadic() && i >= n-1 {
			pi = n - 1
		}
		if pi >= len(rets) || rets[pi] == nil {
			continue
		}
		r := rets[pi]
		lw.sink(origin, call.Pos(), fmt.Sprintf("passed to %s, which retains it (%s at %s)",
			fn.Name(), r.desc, shortPos(lw.sum.pkg.Fset.Position(r.pos))))
	}
}

// captureScan reports loans referenced inside a function literal: the
// closure may outlive the call, so a capture is a retention.
func (lw *loanWalker) captureScan(lit *ast.FuncLit, how string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := lw.sum.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if origin := lw.loaned[obj]; origin != nil {
			lw.sink(origin, id.Pos(), how)
		}
		return true
	})
}

// loanedExpr reports the loan origin an expression aliases, if any:
// identifiers bound to loans, re-slices, field selections and indexing
// that still carry slice data, appends over a loaned base, composite
// literals embedding a loan, conversions, and calls to loan-annotated
// callees.
func (lw *loanWalker) loanedExpr(e ast.Expr) *loanOrigin {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := lw.sum.pkg.Info.Uses[e]; obj != nil {
			return lw.loaned[obj]
		}
	case *ast.ParenExpr:
		return lw.loanedExpr(e.X)
	case *ast.SliceExpr:
		return lw.loanedExpr(e.X)
	case *ast.SelectorExpr:
		if !lw.loanableResult(e) {
			return nil
		}
		return lw.loanedExpr(e.X)
	case *ast.IndexExpr:
		if !lw.loanableResult(e) {
			return nil
		}
		return lw.loanedExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if origin := lw.loanedExpr(v); origin != nil {
				return origin
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lw.loanedExpr(e.X)
		}
	case *ast.CallExpr:
		// Conversions keep the backing array.
		if tv, ok := lw.sum.pkg.Info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 && lw.loanableResult(e) {
				return lw.loanedExpr(e.Args[0])
			}
			return nil
		}
		if id, ok := unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := lw.sum.pkg.Info.Uses[id].(*types.Builtin); ok {
				if b.Name() == "append" && len(e.Args) > 0 {
					return lw.loanedExpr(e.Args[0]) // result aliases the base
				}
				return nil
			}
		}
		if fn := lw.staticCallee(e); fn != nil {
			if spec := lw.eng.loans[fn]; spec != nil && spec.loanedResult(0) {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
					return &loanOrigin{
						paramIdx:  -1,
						what:      fmt.Sprintf("value returned by %s", fn.Name()),
						annotated: true,
					}
				}
			}
		}
	}
	return nil
}

// loanableResult reports whether the expression's own type can still carry
// the loaned backing store (indexing a []byte yields a byte — the loan
// stops there; indexing a [][]byte yields a slice — it does not).
func (lw *loanWalker) loanableResult(e ast.Expr) bool {
	tv, ok := lw.sum.pkg.Info.Types[e]
	return ok && tv.Type != nil && loanable(tv.Type)
}

func (lw *loanWalker) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := lw.sum.pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := lw.sum.pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
