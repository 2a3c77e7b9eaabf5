package lint

import (
	"go/ast"
	"go/printer"
	"go/token"
	"maps"
	"slices"
	"strconv"
	"strings"
)

const (
	module = "repro"                  // every scope below is anchored here
	obsPkg = module + "/internal/obs" // declares the span type obsctx guards
)

// sdkConsumers must reach the solve path only through repro/paq.
var sdkConsumers = []string{module + "/cmd", module + "/examples", module + "/internal/bench"}

// sdkForbidden are the internal/ packages of the solve path, which no
// consumer may import.
var sdkForbidden = strings.Fields("core engine ilp lp naive paql partition sketchrefine translate")

// dataOnly are the other internal/ packages: they carry data or
// infrastructure, not evaluation, so consumers may import them.
// TestBoundaryConfigTracksTree makes every internal/ directory pick one
// of the two, so a new package cannot dodge the decision.
var dataOnly = map[string]string{
	"bench":    "the harness is itself a consumer (and is bound by the boundary as one)",
	"lint":     "developer tooling; never on the solve path",
	"obs":      "tracing and metrics plumbing; carries measurements, not evaluation",
	"par":      "generic worker pool; no solver knowledge",
	"relation": "the data container",
	"reltest":  "test-only construction helpers; never on the solve path",
	"repl":     "replication plumbing over the store",
	"server":   "the service layer consumers embed or talk to",
	"store":    "durability substrate",
	"workload": "synthetic data generators",
}

// noPanic are the internal/ packages a paqld request can reach; paq is
// bound too.
var noPanic = strings.Fields("core engine ilp lp naive obs paql par partition relation repl server sketchrefine store translate")

// panicAllowed are the internal/ packages exempt from the no-panic
// contract, with the reasons docs/INVARIANTS.md documents.
var panicAllowed = map[string]string{
	"bench":    "experiment harness, not a serving path",
	"lint":     "developer tooling, never linked into paqld",
	"reltest":  "panicking by design: test helpers for constant schemas/rows",
	"workload": "boot-time generators fed by program constants, not requests",
}

// internalDir names the internal/ directory pkg lies in, or "".
func internalDir(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, module+"/internal/")
	if !ok {
		return ""
	}
	dir, _, _ := strings.Cut(rest, "/")
	return dir
}

// check is one rule instance: the findings in one file.
type check func(f *file) []string

// checks returns the seven rule instances by name. files is the set
// being checked, which obsctx reads for span-taking signatures.
func checks(files []*file) map[string]check {
	return map[string]check{
		"sdkboundary":     sdkboundary,
		"errcmp":          errcmp,
		"ctxflow":         ctxflow,
		"nopanic":         nopanic,
		"obsctx":          obsctx(spanFuncs(files)),
		"lockorder_store": lockorder(module+"/internal/store", "syncCond", "mu", "syncMu"),
		"lockorder_paq":   lockorder(module+"/paq", "", "dataMu", "building", "regMu", "mu", "fillMu"),
	}
}

// under reports whether pkg is one of prefixes or lies beneath one.
func under(pkg string, prefixes ...string) bool {
	for _, p := range prefixes {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// sdkboundary: commands, examples and the benchmark harness import no
// solve-path internal directly. Only direct imports count: every
// consumer depends on the internals transitively through paq.
func sdkboundary(f *file) []string {
	if !under(f.pkg, sdkConsumers...) {
		return nil
	}
	var out []string
	for _, imp := range f.syntax.Imports {
		if target, _ := strconv.Unquote(imp.Path.Value); slices.Contains(sdkForbidden, internalDir(target)) {
			out = append(out, f.at(imp.Pos(), "%s imports solve-path package %s directly; consume repro/paq instead", f.pkg, target))
		}
	}
	return out
}

// errcmp: a project sentinel error is tested with errors.Is, never with
// ==, != or a switch case, because the taxonomy wraps and subtypes its
// sentinels. Is(error) bool methods implement that hierarchy and are
// exempt; test files are not.
func errcmp(f *file) []string {
	var out []string
	ast.Inspect(f.syntax, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return !isIs(n)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, op := range []ast.Expr{n.X, n.Y} {
					if name := f.sentinel(op); name != "" {
						out = append(out, f.at(n.Pos(), "%s compared with %s; use errors.Is (the taxonomy wraps sentinels, so identity comparison is wrong)", name, n.Op))
					}
				}
			}
		case *ast.SwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if name := f.sentinel(e); n.Tag != nil && name != "" {
						out = append(out, f.at(e.Pos(), "switch case compares %s by identity; use errors.Is in an if/else chain", name))
					}
				}
			}
		}
		return true
	})
	return out
}

// sentinel returns the name of e if it is a project sentinel: an Err*
// identifier, unqualified or selected from an import under the module.
// Standard-library sentinels such as io.EOF are returned unwrapped and
// stay comparable.
func (f *file) sentinel(e ast.Expr) string {
	name := ""
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		if strings.HasPrefix(f.qualified(e), module+"/") {
			name = e.Sel.Name
		}
	}
	if !strings.HasPrefix(name, "Err") {
		return ""
	}
	return name
}

// isIs reports whether fd is Is(error) bool.
func isIs(fd *ast.FuncDecl) bool {
	params, results := fd.Type.Params.List, fd.Type.Results
	return fd.Name.Name == "Is" && len(params) == 1 && len(params[0].Names) <= 1 && isIdent(params[0].Type, "error") &&
		results != nil && len(results.List) == 1 && len(results.List[0].Names) <= 1 && isIdent(results.List[0].Type, "bool")
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// ctxflow: a function holding a context.Context (its own parameter or an
// enclosing literal's) passes it on instead of minting a root with
// context.Background() or TODO(); in internal/bench, which always runs
// under a caller's context, a root is banned outright. The nil-ctx guard
// `ctx = context.Background()`, package main and test files are exempt.
func ctxflow(f *file) []string {
	if f.test || f.syntax.Name.Name == "main" {
		return nil
	}
	banned := under(f.pkg, module+"/internal/bench")
	var out []string
	var walk func(ft *ast.FuncType, body *ast.BlockStmt, inScope bool)
	walk = func(ft *ast.FuncType, body *ast.BlockStmt, inScope bool) {
		has := inScope || slices.ContainsFunc(ft.Params.List, func(p *ast.Field) bool {
			return f.qualified(p.Type) == "context.Context"
		})
		guard := map[ast.Expr]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Type, n.Body, has)
				return false
			case *ast.AssignStmt:
				if _, ok := n.Lhs[0].(*ast.Ident); ok && n.Tok == token.ASSIGN && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					guard[n.Rhs[0]] = true
				}
			case *ast.CallExpr:
				root := f.qualified(n.Fun)
				if root != "context.Background" && root != "context.TODO" || guard[n] {
					return true
				}
				switch {
				case has:
					out = append(out, f.at(n.Pos(), "%s() discards the context.Context already in scope; pass it through", root))
				case banned:
					out = append(out, f.at(n.Pos(), "%s() creates a fresh root on a path that always runs under a caller's context; accept and thread a ctx parameter", root))
				}
			}
			return true
		})
	}
	for _, d := range f.syntax.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			walk(fd.Type, fd.Body, false)
		}
	}
	return out
}

// fatal are the process-ending calls nopanic bans beside panic.
var fatal = map[string]bool{
	"log.Fatal": true, "log.Fatalf": true, "log.Fatalln": true,
	"log.Panic": true, "log.Panicf": true, "log.Panicln": true,
	"os.Exit": true,
}

// nopanic: query-path libraries return typed errors instead of calling
// panic, log.Fatal*, log.Panic* or os.Exit. Package main and test files
// are exempt.
func nopanic(f *file) []string {
	if f.test || f.syntax.Name.Name == "main" || !under(f.pkg, module+"/paq") && !slices.Contains(noPanic, internalDir(f.pkg)) {
		return nil
	}
	var out []string
	ast.Inspect(f.syntax, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isIdent(call.Fun, "panic") {
				out = append(out, f.at(call.Pos(), "panic on the query path; return a typed error instead (no user input may crash the process)"))
			} else if name := f.qualified(call.Fun); fatal[name] {
				out = append(out, f.at(call.Pos(), "%s on the query path; return a typed error instead (only package main may exit)", name))
			}
		}
		return true
	})
	return out
}

// spanFuncs collects the functions and methods that declare a *obs.Span
// parameter (*Span inside internal/obs), keyed "<pkg>.<F>" for a function
// and ".<M>" for a method: with no types, a method call is known by its
// name alone. Each maps to whether each parameter is a span.
func spanFuncs(files []*file) map[string][]bool {
	sigs := map[string][]bool{}
	for _, f := range files {
		for _, d := range f.syntax.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || f.test {
				continue
			}
			var sig []bool
			for _, p := range fd.Type.Params.List {
				t := p.Type
				if e, ok := t.(*ast.Ellipsis); ok {
					t = e.Elt
				}
				star, ok := t.(*ast.StarExpr)
				isSpan := ok && (f.qualified(star.X) == obsPkg+".Span" || f.pkg == obsPkg && isIdent(star.X, "Span"))
				for range max(1, len(p.Names)) {
					sig = append(sig, isSpan)
				}
			}
			if key := f.pkg + "." + fd.Name.Name; slices.Contains(sig, true) {
				if fd.Recv != nil {
					key = "." + fd.Name.Name
				}
				sigs[key] = sig
			}
		}
	}
	return sigs
}

// obsctx: production code never hands a literal nil to a span
// parameter. A nil span value threaded from the root is the disabled
// path (span methods are nil-safe); a literal nil severs the trace for
// the callee's subtree even when the request asked for one. Test files
// are exempt.
func obsctx(spans map[string][]bool) check {
	return func(f *file) []string {
		if f.test {
			return nil
		}
		var out []string
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key := ""
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				key = f.pkg + "." + fun.Name
			case *ast.SelectorExpr:
				if key = f.qualified(fun); key == "" {
					key = "." + fun.Sel.Name
				}
			}
			sig, ok := spans[key]
			for i, arg := range call.Args {
				// Arguments past the last parameter are variadic.
				if ok && sig[min(i, len(sig)-1)] && isIdent(ast.Unparen(arg), "nil") {
					out = append(out, f.at(arg.Pos(), "literal nil *obs.Span argument severs the trace; pass the caller's span (or obs.FromContext); only tests may hand nil"))
				}
			}
			return true
		})
		return out
	}
}

// lockorder returns the rule for one package: while a mutex of order is
// held, none before it may be taken, and cond (if any) may only Wait
// under the last one. A mutex is its field name, whatever the receiver.
//
// The scan is intra-procedural and syntactic. Statements run in order;
// Lock/RLock and Unlock/RUnlock toggle a held set; a deferred Unlock
// keeps the mutex held to the end of the body, which is the window the
// order protects. Branch bodies get a copy of the held set, so the scan
// under-approximates rather than inventing findings, and function
// literals start with nothing held.
func lockorder(pkg, cond string, order ...string) check {
	return func(f *file) []string {
		if !under(f.pkg, pkg) {
			return nil
		}
		s := &scanner{f: f, cond: cond, order: order}
		for _, d := range f.syntax.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				s.block(fd.Body.List, map[string]string{})
			}
		}
		return s.out
	}
}

// scanner walks the functions of one file; held maps a locked field to
// the "<recv>.<field>" it was locked through, for messages.
type scanner struct {
	f     *file
	cond  string
	order []string
	out   []string
}

func (s *scanner) block(stmts []ast.Stmt, held map[string]string) {
	for _, st := range stmts {
		s.stmt(st, held)
	}
}

func (s *scanner) stmt(st ast.Stmt, held map[string]string) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.expr(st.X, held, true)
	case *ast.DeferStmt:
		s.expr(st.Call.Fun, held, false)
	case *ast.GoStmt:
		s.expr(st.Call.Fun, held, false)
	case *ast.AssignStmt:
		for _, e := range slices.Concat(st.Lhs, st.Rhs) {
			s.expr(e, held, false)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e, held, false)
		}
	case *ast.BlockStmt:
		s.block(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		s.block(st.Body.List, maps.Clone(held))
		if st.Else != nil {
			s.stmt(st.Else, maps.Clone(held))
		}
	case *ast.ForStmt:
		s.block(st.Body.List, maps.Clone(held))
	case *ast.RangeStmt:
		s.block(st.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		s.block(st.Body.List, held)
	case *ast.TypeSwitchStmt:
		s.block(st.Body.List, held)
	case *ast.SelectStmt:
		s.block(st.Body.List, held)
	case *ast.CaseClause:
		s.block(st.Body, maps.Clone(held))
	case *ast.CommClause:
		s.block(st.Body, maps.Clone(held))
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	}
}

// expr checks the calls in e; track says whether a Lock or Unlock here
// changes held (not inside a nested expression, whose evaluation order
// is unspecified).
func (s *scanner) expr(e ast.Expr, held map[string]string, track bool) {
	if fl, ok := e.(*ast.FuncLit); ok {
		s.block(fl.Body.List, map[string]string{})
		return
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		s.expr(arg, held, false)
	}
	// A lock call has the shape <recv>.<field>.<method>().
	var inner *ast.SelectorExpr
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		inner, _ = sel.X.(*ast.SelectorExpr)
	}
	if inner == nil {
		s.expr(call.Fun, held, false)
		return
	}
	field, method, recv := inner.Sel.Name, sel.Sel.Name, s.render(inner.X)
	rank := slices.Index(s.order, field)
	switch {
	case rank >= 0 && (method == "Lock" || method == "RLock"):
		for _, later := range s.order[rank+1:] {
			if name, ok := held[later]; ok {
				s.out = append(s.out, s.f.at(call.Pos(), "%s.%s.%s() while %s is held; the established order is %s",
					recv, field, method, name, strings.Join(s.order, "→")))
			}
		}
		if track {
			held[field] = recv + "." + field
		}
	case rank >= 0 && (method == "Unlock" || method == "RUnlock"):
		if track {
			delete(held, field)
		}
	case field == s.cond && method == "Wait":
		last := s.order[len(s.order)-1]
		if _, ok := held[last]; !ok {
			s.out = append(s.out, s.f.at(call.Pos(), "%s.%s.Wait() outside %s.%s; Wait must run under the mutex the cond was built on",
				recv, field, recv, last))
		}
	}
}

// render prints a receiver expression as written.
func (s *scanner) render(e ast.Expr) string {
	var b strings.Builder
	printer.Fprint(&b, s.f.fset, e)
	return b.String()
}
