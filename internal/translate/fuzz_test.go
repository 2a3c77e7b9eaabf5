package translate

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/reltest"
)

// fuzzRel is a small mixed-type relation the compile fuzzer targets: a
// numeric Float column, an Int column, and a String column, so arbitrary
// query text can hit every type-checking path.
func fuzzRel() *relation.Relation {
	rel := relation.New("t", reltest.Schema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Int},
		relation.Column{Name: "c", Type: relation.String},
	))
	reltest.Append(rel, relation.F(1.5), relation.I(2), relation.S("x"))
	reltest.Append(rel, relation.F(-3), relation.I(0), relation.S("y'z"))
	reltest.Append(rel, relation.F(0), relation.I(7), relation.S(""))
	return rel
}

// FuzzCompile asserts the whole user-query path — lex, parse, validate,
// translate, spec validation — never panics, whatever the query text.
// This is the paqld server's contract: arbitrary POST /query bodies
// must surface as errors, not process death. A query that compiles has
// its filter run both ways — one selection over the whole table, and a
// row at a time — and they must name the same rows.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		`SELECT PACKAGE(T) AS P FROM t T REPEAT 0 SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.a)`,
		`SELECT PACKAGE(T) AS P FROM t T WHERE c = 'x' SUCH THAT SUM(P.a) BETWEEN 0 AND 1`,
		`SELECT PACKAGE(T) AS P FROM t SUCH THAT AVG(P.b) >= 1 AND MAX(P.a) <= 2`,
		`SELECT PACKAGE(T) AS P FROM t SUCH THAT SUM(P.c) <= 1`,            // aggregate over TEXT
		`SELECT PACKAGE(T) AS P FROM t WHERE c > 5`,                        // string col vs numeric literal
		`SELECT PACKAGE(T) AS P FROM t WHERE a = 'x'`,                      // numeric col vs string literal
		`SELECT PACKAGE(T) AS P FROM t SUCH THAT SUM(P.a) * SUM(P.b) <= 1`, // non-linear
		`SELECT PACKAGE(T) AS P FROM t SUCH THAT (SELECT SUM(a) FROM P WHERE c = 'y''z') >= 0`,
		`SELECT PACKAGE(T) AS P FROM t SUCH THAT MIN(P.nope) >= 0`,
		`SELECT PACKAGE(T) AS P FROM t WHERE NOT (a BETWEEN -1 AND 1 OR b + a > 3) AND c <> 'x' SUCH THAT MAX(P.b) <= 5`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rel := fuzzRel()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		spec, err := Compile(src, rel)
		if err == nil && spec == nil {
			t.Fatal("Compile returned neither spec nor error")
		}
		if spec != nil && err == nil {
			// A compiled spec must be evaluable machinery: binding its
			// coefficients and filtering rows must not panic either.
			rows := spec.BaseRows()
			if n := spec.CountBase(); n != len(rows) {
				t.Fatalf("CountBase = %d, BaseRows has %d", n, len(rows))
			}
			var single []int
			for _, r := range rel.AllRows() {
				single = append(single, spec.FilterRows([]int{r})...)
			}
			if !slices.Equal(rows, single) {
				t.Fatalf("one pass selects %v, row by row %v", rows, single)
			}
			if _, err := core.BuildILP(spec, rows, nil); err != nil {
				t.Fatalf("compiled spec does not build: %v", err)
			}
		}
	})
}
