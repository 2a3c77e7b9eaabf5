package paql

import (
	"fmt"
	"strings"
)

// Inspect calls fn for every node of the expression tree in pre-order,
// descending into a node's children (an aggregate's are its sub-query
// WHERE) only while fn returns true for it. A nil expression is a no-op.
func Inspect(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case Arith:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case Neg:
		Inspect(x.E, fn)
	case Cmp:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case Between:
		Inspect(x.E, fn)
		Inspect(x.Lo, fn)
		Inspect(x.Hi, fn)
	case Bool:
		for _, k := range x.Kids {
			Inspect(k, fn)
		}
	case Agg:
		Inspect(x.Where, fn)
	}
}

// containsAgg reports whether the expression mentions an aggregate call
// at its top level (not inside a sub-query WHERE).
func containsAgg(e Expr) bool {
	found := false
	Inspect(e, func(n Expr) bool {
		_, agg := n.(Agg)
		found = found || agg
		return !found
	})
	return found
}

// Validate checks the semantic rules of a parsed query:
//
//   - PACKAGE() aliases must be declared in FROM;
//   - exactly one input relation (multi-relation package queries — joins —
//     are future work in the paper and rejected here);
//   - WHERE must be tuple-level (no aggregates);
//   - SUCH THAT and the objective must be package-level (aggregates over
//     the package alias);
//   - aggregate arguments must not themselves contain aggregates.
func Validate(q *Query) error {
	if len(q.From) == 0 {
		return fmt.Errorf("paql: query has no FROM clause")
	}
	if len(q.From) > 1 {
		return fmt.Errorf("paql: multi-relation package queries are not supported (the paper evaluates single-relation queries; joins are future work)")
	}
	fromAliases := make(map[string]bool, len(q.From))
	for _, f := range q.From {
		fromAliases[strings.ToLower(f.Alias)] = true
	}
	if len(q.PackageRels) == 0 {
		return fmt.Errorf("paql: PACKAGE() names no relation alias")
	}
	for _, a := range q.PackageRels {
		if !fromAliases[strings.ToLower(a)] {
			return fmt.Errorf("paql: PACKAGE(%s) does not match any FROM alias", a)
		}
	}
	if q.PackageName == "" {
		return fmt.Errorf("paql: package has no name")
	}

	if q.Where != nil {
		if containsAgg(q.Where) {
			return fmt.Errorf("paql: WHERE must be a tuple-level predicate; aggregates belong in SUCH THAT")
		}
		if err := mustBeBoolean(q.Where, "WHERE"); err != nil {
			return err
		}
	}

	pkg := strings.ToLower(q.PackageName)
	checkAggScope := func(e Expr, clause string) error {
		var errOut error
		Inspect(e, func(n Expr) bool {
			if errOut != nil {
				return false
			}
			if a, ok := n.(Agg); ok {
				over := strings.ToLower(a.Over)
				if over != pkg && !fromAliases[over] {
					errOut = fmt.Errorf("paql: %s aggregate ranges over unknown alias %q (package is %q)", clause, a.Over, q.PackageName)
				}
				if containsAgg(a.Where) {
					errOut = fmt.Errorf("paql: nested aggregates are not allowed")
				}
			}
			return true
		})
		return errOut
	}

	if q.SuchThat != nil {
		if !containsAgg(q.SuchThat) {
			return fmt.Errorf("paql: SUCH THAT must constrain package-level aggregates")
		}
		if err := mustBeBoolean(q.SuchThat, "SUCH THAT"); err != nil {
			return err
		}
		if err := checkAggScope(q.SuchThat, "SUCH THAT"); err != nil {
			return err
		}
		// Column references in SUCH THAT are only legal inside aggregates.
		if err := noBareColumns(q.SuchThat, "SUCH THAT"); err != nil {
			return err
		}
	}
	if q.Objective != nil {
		if !containsAgg(q.Objective.Expr) {
			return fmt.Errorf("paql: objective must aggregate over the package")
		}
		if err := checkAggScope(q.Objective.Expr, "objective"); err != nil {
			return err
		}
		if err := noBareColumns(q.Objective.Expr, "objective"); err != nil {
			return err
		}
	}
	return nil
}

// mustBeBoolean checks that an expression in a boolean position is a
// predicate: a comparison, a BETWEEN, or a boolean combination of
// predicates. Sub-query WHERE filters are checked recursively.
func mustBeBoolean(e Expr, clause string) error {
	switch x := e.(type) {
	case Cmp, Between:
		return nil
	case Bool:
		for _, k := range x.Kids {
			if err := mustBeBoolean(k, clause); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("paql: %s condition %q is not a boolean predicate (expected a comparison)", clause, e)
	}
}

// noBareColumns rejects column references that appear outside aggregate
// calls in package-level clauses.
func noBareColumns(e Expr, clause string) error {
	var errOut error
	Inspect(e, func(n Expr) bool {
		if errOut != nil {
			return false
		}
		switch x := n.(type) {
		case ColRef:
			errOut = fmt.Errorf("paql: bare column %s in %s; package-level clauses may only use aggregates", x, clause)
		case Agg:
			// Aggregate arguments and sub-query filters are tuple-level;
			// stop descending.
			return false
		}
		return true
	})
	return errOut
}
