package relation

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func recipeRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("recipes", mustSchema(
		Column{"name", String},
		Column{"gluten", String},
		Column{"kcal", Float},
		Column{"saturated_fat", Float},
		Column{"servings", Int},
	))
	rows := []struct {
		name, gluten string
		kcal, fat    float64
		servings     int64
	}{
		{"pasta", "full", 0.9, 4.0, 2},
		{"salad", "free", 0.3, 0.5, 1},
		{"steak", "free", 0.8, 7.0, 1},
		{"rice", "free", 0.7, 0.2, 3},
		{"soup", "free", 0.5, 1.0, 2},
		{"bread", "full", 0.4, 0.8, 4},
		{"tofu", "free", 0.6, 0.9, 2},
	}
	for _, x := range rows {
		r.mustAppend(S(x.name), S(x.gluten), F(x.kcal), F(x.fat), I(x.servings))
	}
	return r
}

func TestSchemaLookupCaseInsensitive(t *testing.T) {
	s := mustSchema(Column{"Kcal", Float}, Column{"Name", String})
	if got := s.Lookup("kcal"); got != 0 {
		t.Errorf("Lookup(kcal) = %d, want 0", got)
	}
	if got := s.Lookup("NAME"); got != 1 {
		t.Errorf("Lookup(NAME) = %d, want 1", got)
	}
	if got := s.Lookup("missing"); got != -1 {
		t.Errorf("Lookup(missing) = %d, want -1", got)
	}
}

// TestSchemaDuplicateError is the nopanic regression test: a malformed
// schema — duplicate column names reach NewSchema from CSV headers and
// snapshot files — must surface as an
// ErrTypeMismatch-family error, never a panic.
func TestSchemaDuplicateError(t *testing.T) {
	_, err := NewSchema(Column{"a", Float}, Column{"A", Int})
	if err == nil {
		t.Fatal("NewSchema with duplicate columns returned no error")
	}
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("duplicate-column error = %v, want ErrTypeMismatch family", err)
	}
}

func TestSchemaEqual(t *testing.T) {
	s := mustSchema(Column{"a", Float})
	s2 := mustSchema(Column{"a", Float}, Column{"b", Int})
	if s.Equal(s2) {
		t.Error("schemas of different length compare equal")
	}
	if !s2.Equal(mustSchema(Column{"a", Float}, Column{"b", Int})) {
		t.Error("identical schemas compare unequal")
	}
}

func TestAppendTypeChecking(t *testing.T) {
	r := New("t", mustSchema(Column{"f", Float}, Column{"i", Int}, Column{"s", String}))
	if err := r.Append(F(1.5), I(2), S("x")); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	// Int into Float column coerces.
	if err := r.Append(I(3), I(2), S("x")); err != nil {
		t.Fatalf("int→float coercion failed: %v", err)
	}
	// Integral float into Int column coerces.
	if err := r.Append(F(1), F(4), S("x")); err != nil {
		t.Fatalf("integral float→int coercion failed: %v", err)
	}
	// Non-integral float into Int column fails.
	if err := r.Append(F(1), F(4.5), S("x")); err == nil {
		t.Error("non-integral float→int append succeeded, want error")
	}
	// String into numeric column fails.
	if err := r.Append(S("no"), I(1), S("x")); err == nil {
		t.Error("string→float append succeeded, want error")
	}
	// Wrong arity fails.
	if err := r.Append(F(1)); err == nil {
		t.Error("short row append succeeded, want error")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestValueAccessors(t *testing.T) {
	if f, err := F(2.5).Float(); err != nil || f != 2.5 {
		t.Error("Float() accessor wrong")
	}
	if f, err := I(7).Float(); err != nil || f != 7 {
		t.Error("Float() accessor wrong for Int")
	}
	if n, err := I(7).Int(); err != nil || n != 7 {
		t.Error("Int() accessor wrong")
	}
	if n, err := F(7.9).Int(); err != nil || n != 7 {
		t.Error("Int() accessor wrong for Float")
	}
	if s, err := S("hi").Str(); err != nil || s != "hi" {
		t.Error("Str() accessor wrong")
	}
	// Mismatched reads return ErrTypeMismatch instead of panicking.
	if _, err := S("hi").Float(); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Float() on string: err = %v, want ErrTypeMismatch", err)
	}
	if _, err := S("hi").Int(); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Int() on string: err = %v, want ErrTypeMismatch", err)
	}
	if _, err := F(1).Str(); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Str() on float: err = %v, want ErrTypeMismatch", err)
	}
	if !I(3).Equal(F(3)) {
		t.Error("I(3) should equal F(3)")
	}
	if S("a").Equal(S("b")) || S("a").Equal(F(1)) {
		t.Error("string equality wrong")
	}
}

func TestSelectWithPredicates(t *testing.T) {
	r := recipeRelation(t)
	free := r.Select(NewCompare("gluten", EQ, S("free")))
	if len(free) != 5 {
		t.Fatalf("gluten=free selected %d rows, want 5", len(free))
	}
	light := r.Select(&And{Kids: []Predicate{
		NewCompare("gluten", EQ, S("free")),
		NewCompare("kcal", LE, F(0.6)),
	}})
	if len(light) != 3 { // salad, soup, tofu
		t.Fatalf("conjunction selected %d rows, want 3", len(light))
	}
	either := r.Select(&Or{Kids: []Predicate{
		NewCompare("kcal", GE, F(0.9)),
		NewCompare("servings", GE, I(4)),
	}})
	if len(either) != 2 { // pasta, bread
		t.Fatalf("disjunction selected %d rows, want 2", len(either))
	}
	notFree := r.Select(&Not{Kid: NewCompare("gluten", EQ, S("free"))})
	if len(notFree) != 2 {
		t.Fatalf("negation selected %d rows, want 2", len(notFree))
	}
	all := r.Select(True{})
	if len(all) != r.Len() {
		t.Fatalf("True selected %d rows, want %d", len(all), r.Len())
	}
	between := r.Select(&Between{Col: "kcal", Lo: 0.4, Hi: 0.7})
	if len(between) != 4 { // rice, soup, bread, tofu
		t.Fatalf("between selected %d rows, want 4", len(between))
	}
}

func TestComparePredicateMixedTypes(t *testing.T) {
	r := recipeRelation(t)
	// Comparing a string column to a numeric constant is simply false.
	if rows := r.Select(NewCompare("gluten", EQ, F(1))); len(rows) != 0 {
		t.Errorf("string-vs-numeric comparison matched %d rows, want 0", len(rows))
	}
	// Unknown column is false.
	if rows := r.Select(NewCompare("nope", EQ, F(1))); len(rows) != 0 {
		t.Errorf("unknown column matched %d rows, want 0", len(rows))
	}
	// Int column compared against float works numerically.
	if rows := r.Select(NewCompare("servings", GT, F(2.5))); len(rows) != 2 {
		t.Errorf("servings > 2.5 matched %d rows, want 2", len(rows))
	}
}

func TestPredicateStrings(t *testing.T) {
	p := &And{Kids: []Predicate{
		NewCompare("gluten", EQ, S("free")),
		&Or{Kids: []Predicate{
			&Between{Col: "kcal", Lo: 0, Hi: 1},
			&Not{Kid: True{}},
		}},
	}}
	s := p.String()
	if s == "" {
		t.Fatal("empty predicate string")
	}
	for _, substr := range []string{"gluten = 'free'", "BETWEEN", "NOT", "TRUE"} {
		if !bytes.Contains([]byte(s), []byte(substr)) {
			t.Errorf("predicate string %q missing %q", s, substr)
		}
	}
}

func TestAggregates(t *testing.T) {
	r := recipeRelation(t)
	cases := []struct {
		fn   AggFunc
		col  string
		want float64
	}{
		{Count, "", 7},
		{Sum, "kcal", 4.2},
		{Avg, "kcal", 0.6},
		{Min, "kcal", 0.3},
		{Max, "kcal", 0.9},
		{Sum, "servings", 15},
	}
	for _, c := range cases {
		got, err := Aggregate(r, c.fn, c.col, nil)
		if err != nil {
			t.Fatalf("%v(%s): %v", c.fn, c.col, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v(%s) = %g, want %g", c.fn, c.col, got, c.want)
		}
	}
	if _, err := Aggregate(r, Sum, "gluten", nil); err == nil {
		t.Error("SUM over string column succeeded, want error")
	}
	if _, err := Aggregate(r, Sum, "missing", nil); err == nil {
		t.Error("SUM over missing column succeeded, want error")
	}
	// Empty-set semantics.
	if v, _ := Aggregate(r, Sum, "kcal", []int{}); v != 0 {
		t.Errorf("SUM over empty = %g, want 0", v)
	}
	if v, _ := Aggregate(r, Avg, "kcal", []int{}); !math.IsNaN(v) {
		t.Errorf("AVG over empty = %g, want NaN", v)
	}
	if v, _ := Aggregate(r, Min, "kcal", []int{}); !math.IsNaN(v) {
		t.Errorf("MIN over empty = %g, want NaN", v)
	}
}

func TestWeightedAggregate(t *testing.T) {
	r := recipeRelation(t)
	rows := []int{1, 2} // salad (0.3), steak (0.8)
	mult := []int{2, 3}
	got, err := WeightedAggregate(r, Sum, "kcal", rows, mult)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*0.3 + 3*0.8
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("weighted SUM = %g, want %g", got, want)
	}
	cnt, _ := WeightedAggregate(r, Count, "", rows, mult)
	if cnt != 5 {
		t.Errorf("weighted COUNT = %g, want 5", cnt)
	}
	avg, _ := WeightedAggregate(r, Avg, "kcal", rows, mult)
	if math.Abs(avg-want/5) > 1e-9 {
		t.Errorf("weighted AVG = %g, want %g", avg, want/5)
	}
	mn, _ := WeightedAggregate(r, Min, "kcal", rows, []int{0, 1})
	if mn != 0.8 {
		t.Errorf("weighted MIN skipping zero-mult = %g, want 0.8", mn)
	}
	mx, _ := WeightedAggregate(r, Max, "kcal", rows, []int{1, 0})
	if mx != 0.3 {
		t.Errorf("weighted MAX skipping zero-mult = %g, want 0.3", mx)
	}
	if _, err := WeightedAggregate(r, Sum, "kcal", rows, []int{1}); err == nil {
		t.Error("mismatched mult length succeeded, want error")
	}
	if _, err := WeightedAggregate(r, Sum, "kcal", rows, []int{1, -1}); err == nil {
		t.Error("negative multiplicity succeeded, want error")
	}
}

func TestCentroidAndRadius(t *testing.T) {
	r := New("t", mustSchema(Column{"x", Float}, Column{"y", Float}))
	r.mustAppend(F(0), F(0))
	r.mustAppend(F(2), F(4))
	r.mustAppend(F(4), F(2))
	cols := []int{0, 1}
	c := Centroid(r, cols, r.AllRows())
	if c[0] != 2 || c[1] != 2 {
		t.Fatalf("centroid = %v, want [2 2]", c)
	}
	rad := Radius(r, cols, r.AllRows(), c)
	if rad != 2 {
		t.Errorf("radius = %g, want 2", rad)
	}
	empty := Centroid(r, cols, nil)
	if empty[0] != 0 || empty[1] != 0 {
		t.Errorf("empty centroid = %v, want zeros", empty)
	}
}

func TestSubset(t *testing.T) {
	r := recipeRelation(t)
	s := r.Subset("sub", []int{1, 3, 5})
	if s.Len() != 3 || !s.Schema().Equal(r.Schema()) {
		t.Fatal("subset shape or schema wrong")
	}
	if s.Str(0, 0) != "salad" {
		t.Errorf("subset row 0 = %q, want salad", s.Str(0, 0))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := recipeRelation(t)
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("recipes", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Schema().Equal(r.Schema()) {
		t.Fatalf("schema mismatch after round trip: %s vs %s", back.Schema(), r.Schema())
	}
	if back.Len() != r.Len() {
		t.Fatalf("row count mismatch: %d vs %d", back.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		for c := 0; c < r.Schema().Len(); c++ {
			if !back.Value(i, c).Equal(r.Value(i, c)) {
				t.Fatalf("cell (%d,%d) mismatch: %v vs %v", i, c, back.Value(i, c), r.Value(i, c))
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	r := recipeRelation(t)
	path := t.TempDir() + "/recipes.csv"
	if err := SaveCSV(r, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "recipes" {
		t.Errorf("loaded relation name %q, want recipes", back.Name())
	}
	if back.Len() != r.Len() {
		t.Errorf("row count %d, want %d", back.Len(), r.Len())
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", bytes.NewReader(nil)); err == nil {
		t.Error("empty CSV succeeded, want error")
	}
	bad := "v:f\nnotanumber\n"
	if _, err := ReadCSV("x", bytes.NewReader([]byte(bad))); err == nil {
		t.Error("bad float CSV succeeded, want error")
	}
	badInt := "v:i\n1.5\n"
	if _, err := ReadCSV("x", bytes.NewReader([]byte(badInt))); err == nil {
		t.Error("bad int CSV succeeded, want error")
	}
}

// Property: weighted aggregate with all multiplicities 1 equals the plain
// aggregate, and SUM is linear in multiplicities.
func TestQuickWeightedAggregateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		r := New("t", mustSchema(Column{"v", Float}))
		for i := 0; i < n; i++ {
			r.mustAppend(F(rng.NormFloat64() * 10))
		}
		rows := r.AllRows()
		ones := make([]int, n)
		twos := make([]int, n)
		for i := range ones {
			ones[i] = 1
			twos[i] = 2
		}
		plain, _ := Aggregate(r, Sum, "v", rows)
		w1, _ := WeightedAggregate(r, Sum, "v", rows, ones)
		w2, _ := WeightedAggregate(r, Sum, "v", rows, twos)
		return math.Abs(plain-w1) < 1e-6 && math.Abs(2*plain-w2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CSV round trip preserves every numeric cell exactly.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		r := New("t", mustSchema(Column{"f", Float}, Column{"i", Int}))
		for i := 0; i < n; i++ {
			r.mustAppend(F(rng.NormFloat64()), I(rng.Int63n(1000)-500))
		}
		var buf bytes.Buffer
		if err := WriteCSV(r, &buf); err != nil {
			return false
		}
		back, err := ReadCSV("t", &buf)
		if err != nil || back.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if back.Float(i, 0) != r.Float(i, 0) || back.IntColumn(1)[i] != r.IntColumn(1)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The mutation surface: tombstone deletes keep indices stable, Set
// updates in place, and every mutation bumps the version.
func TestMutationSurface(t *testing.T) {
	r := New("t", mustSchema(Column{"id", Int}, Column{"v", Float}, Column{"s", String}))
	for i := 0; i < 5; i++ {
		r.mustAppend(I(int64(i)), F(float64(i)*1.5), S("x"))
	}
	v0 := r.Version()
	if v0 == 0 {
		t.Fatal("appends did not bump the version")
	}
	if r.Live() != 5 || r.Len() != 5 {
		t.Fatalf("Live=%d Len=%d, want 5/5", r.Live(), r.Len())
	}

	if err := r.Delete(2); err != nil {
		t.Fatal(err)
	}
	if r.Version() <= v0 {
		t.Error("Delete did not bump the version")
	}
	if r.Live() != 4 || r.Len() != 5 {
		t.Fatalf("after delete: Live=%d Len=%d, want 4/5", r.Live(), r.Len())
	}
	if !r.Deleted(2) || r.Deleted(3) {
		t.Error("Deleted mask wrong")
	}
	if got := r.AllRows(); len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 3 || got[3] != 4 {
		t.Errorf("AllRows = %v, want [0 1 3 4]", got)
	}
	if rows := r.Select(nil); len(rows) != 4 {
		t.Errorf("Select(nil) = %v, want 4 live rows", rows)
	}
	if err := r.Delete(2); err == nil {
		t.Error("double delete must fail")
	}
	if err := r.Delete(99); err == nil {
		t.Error("out-of-range delete must fail")
	}

	// Physical cells of a deleted row stay addressable.
	if got := r.Float(2, 1); got != 3.0 {
		t.Errorf("deleted row cell = %g, want 3", got)
	}

	// Set: in-place update with type checking.
	v1 := r.Version()
	if err := r.Set(3, 1, F(42)); err != nil {
		t.Fatal(err)
	}
	if r.Float(3, 1) != 42 {
		t.Error("Set did not update the cell")
	}
	if r.Version() <= v1 {
		t.Error("Set did not bump the version")
	}
	if err := r.Set(3, 1, S("no")); err == nil {
		t.Error("Set with a string into a Float column must fail")
	}
	if err := r.Set(3, 0, F(1.5)); err == nil {
		t.Error("Set with a non-integral float into an Int column must fail")
	}
	if err := r.Set(2, 1, F(1)); err == nil {
		t.Error("Set on a deleted row must fail")
	}

	// Appends after a delete extend the mask; new rows are live.
	r.mustAppend(I(9), F(9), S("y"))
	if r.Live() != 5 || r.Len() != 6 || r.Deleted(5) {
		t.Fatalf("after append: Live=%d Len=%d Deleted(5)=%v", r.Live(), r.Len(), r.Deleted(5))
	}
}

// Append validates the whole row before touching any column store, so a
// failed append cannot leave ragged columns.
func TestAppendAtomic(t *testing.T) {
	r := New("t", mustSchema(Column{"a", Float}, Column{"b", Int}))
	if err := r.Append(F(1), F(0.5)); err == nil {
		t.Fatal("append with a non-integral value for an Int column must fail")
	}
	if r.Len() != 0 {
		t.Fatalf("failed append left %d rows", r.Len())
	}
	if err := r.Append(F(1), I(2)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Float(0, 0) != 1 || r.IntColumn(1)[0] != 2 {
		t.Fatal("append after failed append corrupted the store")
	}
	if err := r.CheckRow([]Value{F(1)}); err == nil {
		t.Error("CheckRow must reject wrong arity")
	}
	if err := r.CheckRow([]Value{F(1), I(1)}); err != nil {
		t.Errorf("CheckRow rejected a valid row: %v", err)
	}
}

// TestFromColumns: the relation adopts the slices as they are (a cell
// written through the relation is the caller's slice's cell), carries the
// given version, behaves like an appended one afterwards, and refuses a
// column that does not hold n cells of its type.
func TestFromColumns(t *testing.T) {
	schema := mustSchema(Column{"name", String}, Column{"kcal", Float}, Column{"servings", Int})
	kcal := []float64{1.5, -0.0, math.Inf(1)}
	r, err := FromColumns("recipes", schema, []Cells{
		{S: []string{"a", "", "β"}}, {F: kcal}, {I: []int64{math.MinInt64, 0, math.MaxInt64}},
	}, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Live() != 3 || r.Version() != 41 || r.Str(2, 0) != "β" || r.IntColumn(2)[0] != math.MinInt64 {
		t.Fatalf("len %d live %d version %d, cells %v", r.Len(), r.Live(), r.Version(), r.Row(2))
	}
	if err := r.Set(0, 1, F(9)); err != nil || kcal[0] != 9 {
		t.Fatalf("Set: %v; the adopted slice reads %v", err, kcal[0])
	}
	if err := r.Append(S("d"), F(2), I(4)); err != nil || r.Len() != 4 || r.Version() != 43 {
		t.Fatalf("Append: %v; len %d version %d", err, r.Len(), r.Version())
	}
	for name, cols := range map[string][]Cells{
		"short column":   {{S: []string{"a", "b"}}, {F: kcal}, {I: []int64{1, 2, 3}}},
		"wrong type":     {{S: []string{"a", "b", "c"}}, {I: []int64{1, 2, 3}}, {I: []int64{1, 2, 3}}},
		"two slices":     {{S: []string{"a", "b", "c"}, F: kcal}, {F: kcal}, {I: []int64{1, 2, 3}}},
		"missing column": {{S: []string{"a", "b", "c"}}, {F: kcal}},
	} {
		if _, err := FromColumns("recipes", schema, cols, 3, 1); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%s: err = %v, want ErrTypeMismatch", name, err)
		}
	}
}
