package sketchrefine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/naive"
	"repro/internal/relation"
)

// TestCoefErrorsAlikeOnEveryMethod: a constraint or objective whose
// coefficient cannot be evaluated on the input relation — it names a
// missing column, or the String column cat — fails DIRECT, the naive
// self-join and SketchRefine over a head and over a view with one and the
// same error, and the String column's is relation.ErrTypeMismatch.
// SketchRefine's sketch runs over R̃, whose schema has neither column: the
// error it must give is the input relation's, not R̃'s unknown column.
func TestCoefErrorsAlikeOnEveryMethod(t *testing.T) {
	rel := genRel(60, 3)
	snap := rel.Snapshot()
	head := buildPart(t, rel, 12, 0)
	view := head.View(snap)
	cat := relation.NewCompare("cat", relation.EQ, relation.S("x"))
	for _, tc := range []struct {
		name     string
		coef     core.Coef
		mismatch bool // a String column: relation.ErrTypeMismatch
	}{
		{"missing", core.AttrCoef{Attr: "nope"}, false},
		{"string", core.AttrCoef{Attr: "cat"}, true},
		{"shifted string", core.ShiftedAttrCoef{Attr: "cat", Shift: -1}, true},
		{"conditional missing", core.CondCoef{Pred: cat, Inner: core.ScaledCoef{W: 2, Inner: core.AttrCoef{Attr: "nope"}}}, false},
		{"sum with string", core.SumCoef{Parts: []core.Coef{core.AttrCoef{Attr: "a"}, core.AttrCoef{Attr: "cat"}}}, true},
	} {
		for _, inObjective := range []bool{false, true} {
			spec := cardSpec(rel, 3, 20)
			if inObjective {
				spec.Objective = &core.Objective{Maximize: true, Coef: tc.coef}
			} else {
				spec.Constraints = append(spec.Constraints, core.Constraint{Coef: tc.coef, Op: lp.LE, RHS: 10})
			}
			onSnap := *spec
			onSnap.Rel = snap
			ctx := context.Background()
			errs := map[string]error{}
			_, _, errs["direct"] = core.Direct(ctx, spec, ilp.Options{}, nil)
			_, _, errs["naive"] = naive.Solve(ctx, spec, naive.Options{})
			_, _, errs["sketchrefine over a head"] = EvaluateCtx(ctx, spec, head, Options{})
			_, _, errs["sketchrefine over a view"] = EvaluateCtx(ctx, &onSnap, view, Options{})
			want := errs["direct"]
			if want == nil {
				t.Fatalf("%s (objective %v): DIRECT evaluated it", tc.name, inObjective)
			}
			for method, err := range errs {
				switch {
				case err == nil:
					t.Errorf("%s (objective %v): %s evaluated it", tc.name, inObjective, method)
				case err.Error() != want.Error():
					t.Errorf("%s (objective %v): %s fails with %q, DIRECT with %q", tc.name, inObjective, method, err, want)
				case tc.mismatch && !errors.Is(err, relation.ErrTypeMismatch):
					t.Errorf("%s (objective %v): %s fails with %q, not relation.ErrTypeMismatch", tc.name, inObjective, method, err)
				case !tc.mismatch && !strings.Contains(err.Error(), `unknown column "nope"`):
					t.Errorf("%s (objective %v): %s fails with %q, not the missing column", tc.name, inObjective, method, err)
				}
			}
		}
	}
}
