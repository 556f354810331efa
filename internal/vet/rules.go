package vet

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// --- shared resolution helpers ---

// importsByName maps local import names to import paths for one file, so
// rules can resolve selector qualifiers even when type info is incomplete.
func importsByName(file *ast.File) map[string]string {
	out := map[string]string{}
	for _, spec := range file.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		out[name] = path
	}
	return out
}

// selectorPkgPath resolves sel's qualifier to an import path when the
// qualifier names an imported package (via type info, falling back to the
// file's import table). Returns "" otherwise.
func selectorPkgPath(pkg *Package, imports map[string]string, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a variable/field qualifier, not a package
	}
	// No type info: treat as a package qualifier if, and only if, the name
	// matches an import and no file-scope object shadows it (approximate).
	return imports[id.Name]
}

// --- rule: determinism ---

// forbiddenTimeFuncs read the wall clock or real timers; deterministic code
// must use sim.Clock / transport.Env instead.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// allowedRandFuncs construct seeded sources and are deterministic; every
// other package-level math/rand function draws from the global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func checkDeterminism(cfg *Config, pkg *Package) []Finding {
	if !cfg.deterministic(pkg.Path) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		imports := importsByName(file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch selectorPkgPath(pkg, imports, sel) {
			case "time":
				if forbiddenTimeFuncs[sel.Sel.Name] {
					out = append(out, Finding{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Rule: "determinism",
						Msg: "time." + sel.Sel.Name + " in deterministic package " + pkg.Path +
							"; route time through internal/sim's Clock (transport.Env)",
					})
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[sel.Sel.Name] {
					out = append(out, Finding{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Rule: "determinism",
						Msg: "global math/rand." + sel.Sel.Name + " in deterministic package " + pkg.Path +
							"; use internal/sim's seeded Rng",
					})
				}
			}
			return true
		})
	}
	return out
}

// --- rule: wireerr ---

var parseFuncName = regexp.MustCompile(`^(Parse|parse|Decode|decode)`)

// wireParseCallee reports whether call invokes a wire parse/decode function
// and, when type info is available, whether its last result is an error.
// The second return is the number of results (0 = unknown).
func wireParseCallee(cfg *Config, pkg *Package, imports map[string]string, call *ast.CallExpr) (string, int, bool) {
	var name string
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		path := selectorPkgPath(pkg, imports, fun)
		if path == "" || !matchPkg(path, cfg.WirePkgs) {
			return "", 0, false
		}
		name = fun.Sel.Name
		obj = pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		// Intra-package call inside a wire package itself.
		if !matchPkg(pkg.Path, cfg.WirePkgs) {
			return "", 0, false
		}
		name = fun.Name
		obj = pkg.Info.Uses[fun]
	default:
		return "", 0, false
	}
	if !parseFuncName.MatchString(name) {
		return "", 0, false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return "", 0, false
		}
		res := sig.Results()
		if res.Len() == 0 {
			return "", 0, false
		}
		last := res.At(res.Len() - 1).Type()
		named, ok := last.(*types.Named)
		if !ok || named.Obj().Name() != "error" {
			return "", 0, false // e.g. DecodePacketNumber: no error result
		}
		return name, res.Len(), true
	}
	// Syntactic fallback: assume the conventional (value..., error) shape.
	return name, 0, true
}

func checkWireErr(cfg *Config, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		imports := importsByName(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, _, ok := wireParseCallee(cfg, pkg, imports, call); ok {
					out = append(out, Finding{
						Pos:  pkg.Fset.Position(call.Pos()),
						Rule: "wireerr",
						Msg:  "result of " + name + " discarded; wire parse errors must be checked",
					})
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, nres, ok := wireParseCallee(cfg, pkg, imports, call)
				if !ok {
					return true
				}
				if nres != 0 && len(stmt.Lhs) != nres {
					return true // not the full multi-assign form
				}
				last, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" && len(stmt.Lhs) > 1 {
					out = append(out, Finding{
						Pos:  pkg.Fset.Position(last.Pos()),
						Rule: "wireerr",
						Msg:  "error result of " + name + " assigned to _; wire parse errors must be checked",
					})
				}
			}
			return true
		})
	}
	return out
}

// --- rule: panicpath ---

var (
	wireRootName    = regexp.MustCompile(`^(Parse|parse)`)
	wireEncodeName  = regexp.MustCompile(`^(Append|append|Seal|seal|String)`)
	ingestRootName  = regexp.MustCompile(`^(HandleDatagram|handle|open|Handle|Open)`)
	ingestVisitName = regexp.MustCompile(`^(handle|Handle|open|Open|parse|Parse|decode|Decode|record|process|recv|Recv)`)
)

type panicNode struct {
	pkg     *Package
	decl    *ast.FuncDecl
	visitOK bool
	root    bool
}

// checkPanicPath flags explicit panic calls in functions reachable from
// attacker-controlled parse entry points. The call graph is approximate and
// name-based: intra-package calls follow idents and method selectors; cross-
// package calls follow only qualified references into wire packages.
// Traversal stays on the decode side — encode helpers (Append*/seal*) in
// wire and non-ingestion functions in transport are not entered.
func checkPanicPath(cfg *Config, pkgs []*Package) []Finding {
	nodes := map[string]*panicNode{} // "pkgpath.FuncName"
	key := func(path, name string) string { return path + "." + name }
	for _, pkg := range pkgs {
		wirePkg := matchPkg(pkg.Path, cfg.WirePkgs)
		ingestPkg := matchPkg(pkg.Path, cfg.IngestPkgs)
		if !wirePkg && !ingestPkg {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				name := decl.Name.Name
				node := &panicNode{pkg: pkg, decl: decl}
				if wirePkg {
					node.visitOK = !wireEncodeName.MatchString(name)
					node.root = wireRootName.MatchString(name)
				} else {
					node.visitOK = ingestVisitName.MatchString(name)
					node.root = ingestRootName.MatchString(name)
				}
				// Methods can collide with functions of the same name; keep
				// the first, which is conservative enough for this codebase.
				if _, exists := nodes[key(pkg.Path, name)]; !exists {
					nodes[key(pkg.Path, name)] = node
				}
			}
		}
	}

	// BFS from roots through visitable nodes.
	visited := map[string]bool{}
	var queue []string
	for k, n := range nodes {
		if n.root && n.visitOK {
			visited[k] = true
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		n := nodes[k]
		imports := map[string]string{}
		for _, file := range n.pkg.Files {
			if n.pkg.Fset.Position(file.Pos()).Filename == n.pkg.Fset.Position(n.decl.Pos()).Filename {
				imports = importsByName(file)
			}
		}
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			var calleeKey string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				calleeKey = key(n.pkg.Path, fun.Name)
			case *ast.SelectorExpr:
				if path := selectorPkgPath(n.pkg, imports, fun); path != "" {
					if matchPkg(path, cfg.WirePkgs) {
						calleeKey = key(path, fun.Sel.Name)
					}
				} else {
					// Method or field call: try same-package resolution.
					calleeKey = key(n.pkg.Path, fun.Sel.Name)
				}
			}
			if callee, ok := nodes[calleeKey]; ok && callee.visitOK && !visited[calleeKey] {
				visited[calleeKey] = true
				queue = append(queue, calleeKey)
			}
			return true
		})
	}

	var out []Finding
	for k := range visited {
		n := nodes[k]
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				out = append(out, Finding{
					Pos:  n.pkg.Fset.Position(call.Pos()),
					Rule: "panicpath",
					Msg: "panic in " + n.decl.Name.Name +
						", reachable from attacker-controlled parse path; return an error instead",
				})
			}
			return true
		})
	}
	return out
}

// --- rule: maprange ---

var sortPkgs = map[string]bool{"sort": true, "slices": true}

// checkMapRange flags `for range` over map values in deterministic
// packages, unless the enclosing function re-establishes a total order by
// calling into sort/slices (the collect-then-sort idiom).
func checkMapRange(cfg *Config, pkg *Package) []Finding {
	if !cfg.deterministic(pkg.Path) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		imports := importsByName(file)
		// Pre-compute which FuncDecls call a sort function.
		sorts := map[*ast.FuncDecl]bool{}
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if sortPkgs[selectorPkgPath(pkg, imports, sel)] {
							sorts[decl] = true
						}
					}
				}
				return true
			})
		}
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true // no type info; cannot tell, stay quiet
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if sorts[decl] {
					return true // collect-then-sort idiom
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(rs.Pos()),
					Rule: "maprange",
					Msg: "unordered map iteration in deterministic package " + pkg.Path +
						"; iterate a sorted key slice (or sort afterwards) so scheduling/ACK decisions are reproducible",
				})
				return true
			})
		}
	}
	return out
}
