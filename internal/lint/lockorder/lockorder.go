// Package lockorder enforces a declared mutex acquisition order within
// the configured packages: a function that holds a mutex later in the
// order may not acquire one earlier in it — every site that needs
// several takes them outermost first — and a condition variable may
// only Wait while its mutex (the innermost of the order) is held. Two
// instances run in this repository: the WAL's mu→syncMu with syncCond
// (the PR 5 group-commit race class) and the SDK's
// dataMu→building→regMu→mu.
//
// The check is an intra-procedural, syntactic simulation: statements
// are scanned in order, Lock/RLock and Unlock/RUnlock on the configured
// fields toggle a held set, and defer'd Unlocks deliberately do not
// release (the mutex stays held for the rest of the body, which is
// exactly the window the order rule protects). Branch bodies are
// scanned with a copy of the held set, so lock state changes inside a
// branch do not leak into the code after it — the scan
// under-approximates cross-branch flows rather than inventing false
// positives. Function literals start with an empty held set (they run
// on other goroutines or after return).
package lockorder

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
)

// Config names the mutex fields whose order is law.
type Config struct {
	// Packages: import-path prefixes the rule applies to.
	Packages []string
	// Order lists the mutex field names outermost (acquired first)
	// first: while one is held, none before it may be acquired.
	Order []string
	// Cond is the field name of the condition variable that must only
	// Wait under the last mutex of Order ("" disables the cond check).
	Cond string
}

// New returns the analyzer for one lock-order configuration.
func New(cfg Config) *analysis.Analyzer {
	order := strings.Join(cfg.Order, "→")
	doc := "lock order is " + order + ": never acquire an earlier mutex while holding a later one"
	if cfg.Cond != "" {
		doc += ", and only Wait on " + cfg.Cond + " under " + cfg.Order[len(cfg.Order)-1]
	}
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc:  doc,
		Run: func(pass *analysis.Pass) (interface{}, error) {
			if !under(pass.Pkg.Path(), cfg.Packages) {
				return nil, nil
			}
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					s := &scanner{pass: pass, cfg: cfg, order: order}
					s.block(fd.Body.List, map[string]string{})
				}
			}
			return nil, nil
		},
	}
}

// scanner walks one function.
type scanner struct {
	pass  *analysis.Pass
	cfg   Config
	order string // cfg.Order rendered for messages
}

// rank is a field's position in the configured order, -1 if absent.
func (s *scanner) rank(field string) int { return slices.Index(s.cfg.Order, field) }

// block scans statements in order, mutating held: the locked mutexes by
// field name — the ordered fields may live on different structs, so the
// receiver is no part of a mutex's identity — each mapped to the
// "<recv>.<field>" it was locked through, for messages.
func (s *scanner) block(stmts []ast.Stmt, held map[string]string) {
	for _, st := range stmts {
		s.stmt(st, held)
	}
}

// stmt dispatches one statement.
func (s *scanner) stmt(st ast.Stmt, held map[string]string) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.expr(st.X, held, true)
	case *ast.DeferStmt:
		// A defer'd Unlock keeps the region held to the end of
		// the body (correct for order checking); a defer'd Lock is
		// nonsense we simply don't model. Still scan the arguments and
		// any function literal being deferred.
		s.expr(st.Call.Fun, held, false)
	case *ast.GoStmt:
		s.expr(st.Call.Fun, held, false)
	case *ast.AssignStmt:
		for _, e := range append(append([]ast.Expr{}, st.Lhs...), st.Rhs...) {
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
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, maps.Clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, maps.Clone(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.block(cc.Body, maps.Clone(held))
			}
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	}
}

// expr handles lock-relevant call expressions; track says whether
// state changes apply to the caller's held set (false inside nested
// expressions where evaluation order is unspecified — there we only
// check, conservatively, against the current state).
func (s *scanner) expr(e ast.Expr, held map[string]string, track bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		if fl, ok := e.(*ast.FuncLit); ok {
			s.block(fl.Body.List, map[string]string{})
		}
		return
	}
	for _, arg := range call.Args {
		s.expr(arg, held, false)
	}
	method, field, recv := s.mutexCall(call)
	if method == "" {
		if fl, ok := call.Fun.(*ast.FuncLit); ok {
			s.block(fl.Body.List, map[string]string{})
		}
		return
	}
	rank := s.rank(field)
	switch {
	case rank >= 0 && (method == "Lock" || method == "RLock"):
		for _, later := range s.cfg.Order[rank+1:] {
			if name, ok := held[later]; ok {
				s.pass.Reportf(call.Pos(), "%s.%s.%s() while %s is held; the established order is %s",
					recv, field, method, name, s.order)
			}
		}
		if track {
			held[field] = recv + "." + field
		}
	case rank >= 0 && (method == "Unlock" || method == "RUnlock"):
		if track {
			delete(held, field)
		}
	case field == s.cfg.Cond && method == "Wait":
		last := s.cfg.Order[len(s.cfg.Order)-1]
		if _, ok := held[last]; !ok {
			s.pass.Reportf(call.Pos(),
				"%s.%s.Wait() outside %s.%s; Wait must run under the mutex the cond was built on",
				recv, field, recv, last)
		}
	}
}

// mutexCall decomposes calls of the shape <recv>.<field>.<method>()
// where field is one of the configured names, returning the method,
// field, and the receiver expression rendered as a stable string.
func (s *scanner) mutexCall(call *ast.CallExpr) (method, field, recv string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	name := inner.Sel.Name
	if s.rank(name) < 0 && name != s.cfg.Cond {
		return "", "", ""
	}
	return sel.Sel.Name, name, types.ExprString(inner.X)
}

// under reports whether path equals or lies beneath any prefix.
func under(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
