package sketchrefine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
)

// refineCells evaluates spec over part traced and returns, per refine,
// where its cells came from, and the number of hybrid sketches solved.
func refineCells(t *testing.T, spec *core.Spec, part *partition.Partitioning) (cells []string, hybrids int) {
	t.Helper()
	root := obs.NewSpan("solve")
	if _, _, err := EvaluateCtx(obs.ContextWith(context.Background(), root), spec, part, Options{}); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	var walk func(n *obs.Node)
	walk = func(n *obs.Node) {
		switch n.Name {
		case "refine_group":
			cells = append(cells, n.Attrs["cells"].(string))
		case "hybrid_sketch":
			hybrids++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root.Node())
	return cells, hybrids
}

// TestGroupColumnsStayReadOnly: a refine's ILP may alias a view's group
// columns, and the hybrid sketch appends to the rows of the problem it
// builds, yet after refines of every coefficient kind and a hybrid
// sketch, every column the view keeps still equals the snapshot's cells,
// and its row of ones is still all ones.
// A filtered spec's refines read the relation instead.
func TestGroupColumnsStayReadOnly(t *testing.T) {
	small := genRel(60, 2)
	snap := small.Snapshot()
	view := buildPart(t, small, 12, 0).View(snap)

	// The TestTraceSubproblemIDs window: its plain sketch is infeasible.
	window := cardSpec(snap, 3, 21.72)
	window.Constraints = append(window.Constraints,
		core.Constraint{Coef: core.AttrCoef{Attr: "a"}, Op: lp.GE, RHS: 21.68})
	a, b := core.AttrCoef{Attr: "a"}, core.AttrCoef{Attr: "b"}
	kinds := cardSpec(snap, 4, 30)
	kinds.Constraints = append(kinds.Constraints,
		core.Constraint{Coef: core.ShiftedAttrCoef{Attr: "b", Shift: -3}, Op: lp.GE, RHS: 0},
		core.Constraint{Coef: core.SumCoef{Parts: []core.Coef{a, core.ScaledCoef{W: 2, Inner: b}}}, Op: lp.LE, RHS: 70},
		core.Constraint{Coef: core.CondCoef{Pred: relation.NewCompare("b", relation.GT, relation.F(5)), Inner: core.UnitCoef{}}, Op: lp.GE, RHS: 1})
	kinds.Objective.Coef = core.SumCoef{Parts: []core.Coef{core.ScaledCoef{W: 0.5, Inner: a}, b}}

	for _, tc := range []struct {
		name   string
		spec   *core.Spec
		hybrid bool
	}{{"hybrid sketch", window, true}, {"every kind", kinds, false}} {
		cells, hybrids := refineCells(t, tc.spec, view)
		if (hybrids > 0) != tc.hybrid || len(cells) == 0 {
			t.Fatalf("%s: %d hybrid sketches, %d refines", tc.name, hybrids, len(cells))
		}
		for _, c := range cells {
			if c != "view" {
				t.Fatalf("%s: an unfiltered refine read its cells from the %s", tc.name, c)
			}
		}
	}

	kept := 0
	for gid, g := range view.Groups {
		for col := -1; col < 2; col++ { // −1: COUNT's ones
			cells, filled := view.GroupColumn(gid, col)
			if !filled {
				kept++
			}
			for j, r := range g.Rows {
				want := 1.0
				if col >= 0 {
					want = snap.FloatColumn(col)[r]
				}
				if cells[j] != want {
					t.Fatalf("group %d column %d cell %d reads %v, want %v", gid, col, j, cells[j], want)
				}
			}
		}
	}
	if kept == 0 {
		t.Fatal("the refines kept no column in the view")
	}

	filtered := cardSpec(snap, 3, 40)
	filtered.Base = relation.NewCompare("a", relation.LE, relation.F(8))
	cells, _ := refineCells(t, filtered, view)
	for _, c := range cells {
		if c != "relation" {
			t.Fatalf("a filtered refine read its cells from the %s", c)
		}
	}
}
