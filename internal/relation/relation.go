package relation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ErrTypeMismatch is the typed error returned by Value accessors (and
// wrapped by schema/row/CSV construction errors) when a value is read as
// an incompatible type or a schema is malformed. Callers can match it
// with errors.Is.
var ErrTypeMismatch = errors.New("relation: type mismatch")

// ErrImmutable is returned by every mutating method when called on a
// snapshot (see Snapshot): snapshots are frozen views and only the head
// relation accepts writes.
var ErrImmutable = errors.New("relation: snapshot is immutable")

// Value is a dynamically typed cell value. It is used at API boundaries
// (row construction, CSV parsing, tests); hot paths use the typed column
// accessors instead.
type Value struct {
	typ Type
	f   float64
	i   int64
	s   string
}

// F wraps a float64 as a Value.
func F(v float64) Value { return Value{typ: Float, f: v} }

// I wraps an int64 as a Value.
func I(v int64) Value { return Value{typ: Int, i: v} }

// S wraps a string as a Value.
func S(v string) Value { return Value{typ: String, s: v} }

// Type returns the type of the value.
func (v Value) Type() Type { return v.typ }

// Float returns the value as a float64. Int values convert; String
// values return ErrTypeMismatch.
func (v Value) Float() (float64, error) {
	switch v.typ {
	case Float:
		return v.f, nil
	case Int:
		return float64(v.i), nil
	default:
		return 0, fmt.Errorf("%w: Float() on %s value", ErrTypeMismatch, v.typ)
	}
}

// Int returns the value as an int64. Float values truncate; String
// values return ErrTypeMismatch.
func (v Value) Int() (int64, error) {
	switch v.typ {
	case Int:
		return v.i, nil
	case Float:
		return int64(v.f), nil
	default:
		return 0, fmt.Errorf("%w: Int() on %s value", ErrTypeMismatch, v.typ)
	}
}

// Str returns the value as a string; numeric values return
// ErrTypeMismatch.
func (v Value) Str() (string, error) {
	if v.typ != String {
		return "", fmt.Errorf("%w: Str() on %s value", ErrTypeMismatch, v.typ)
	}
	return v.s, nil
}

// String renders the value for display.
func (v Value) String() string {
	switch v.typ {
	case Float:
		return fmt.Sprintf("%g", v.f)
	case Int:
		return fmt.Sprintf("%d", v.i)
	default:
		return v.s
	}
}

// Equal reports deep equality of two values, comparing numerics by value
// (so I(3) equals F(3)).
func (v Value) Equal(o Value) bool {
	if v.typ == String || o.typ == String {
		return v.typ == o.typ && v.s == o.s
	}
	return v.num() == o.num()
}

// num returns the numeric value of a Float or Int Value and NaN for a
// String value (package-internal fast path; exported accessors return
// typed errors instead).
func (v Value) num() float64 {
	switch v.typ {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	default:
		return math.NaN()
	}
}

// column is the typed backing store for one attribute. stamp is its
// backing array's copy-on-write stamp on a head (see Relation.Stamp).
type column struct {
	typ   Type
	f     []float64
	i     []int64
	s     []string
	stamp uint64
}

func (c *column) appendValue(v Value) error {
	switch c.typ {
	case Float:
		switch v.typ {
		case Float:
			c.f = append(c.f, v.f)
		case Int:
			c.f = append(c.f, float64(v.i))
		default:
			return fmt.Errorf("relation: cannot store string in DOUBLE column")
		}
	case Int:
		switch v.typ {
		case Int:
			c.i = append(c.i, v.i)
		case Float:
			if v.f != math.Trunc(v.f) {
				return fmt.Errorf("relation: cannot store non-integral %g in BIGINT column", v.f)
			}
			c.i = append(c.i, int64(v.f))
		default:
			return fmt.Errorf("relation: cannot store string in BIGINT column")
		}
	case String:
		if v.typ != String {
			return fmt.Errorf("relation: cannot store numeric in TEXT column")
		}
		c.s = append(c.s, v.s)
	}
	return nil
}

func (c *column) value(row int) Value {
	switch c.typ {
	case Float:
		return F(c.f[row])
	case Int:
		return I(c.i[row])
	default:
		return S(c.s[row])
	}
}

func (c *column) float(row int) float64 {
	switch c.typ {
	case Float:
		return c.f[row]
	case Int:
		return float64(c.i[row])
	default:
		// Numeric access to a string column yields NaN instead of
		// panicking: NaN poisons any comparison or aggregate, so a type
		// confusion that slips past translate-time validation degrades to
		// an infeasible/NaN answer rather than killing the process.
		return math.NaN()
	}
}

// Relation is an in-memory table with a fixed schema and column-major
// typed storage.
//
// A relation is mutable: Append adds rows, Set overwrites cells in
// place, and Delete tombstones rows without renumbering the survivors
// (physical row indices stay stable for the relation's lifetime, so
// packages, partitionings, and caches can keep referring to them).
// Every mutation bumps a monotonically increasing version; consumers
// key derived state (solution caches, prepared statements) on it to
// detect staleness. The relation itself is not synchronized — callers
// serialize mutations against Snapshot calls (paq.Session holds a
// narrow mutation lock); readers holding a snapshot need no lock at
// all, because mutations copy-on-write any storage a snapshot shares.
type Relation struct {
	name   string
	schema Schema
	cols   []*column
	n      int
	// deleted tombstones rows; nil until the first Delete. Tombstoned
	// rows keep their physical cells (stable indices) but are skipped by
	// Select, AllRows, and Live.
	deleted  []bool
	nDeleted int
	// version counts mutations (appends, deletes, cell updates).
	version uint64

	// Copy-on-write snapshot bookkeeping. head is set on snapshots and
	// points at the relation the snapshot was taken from (the identity
	// every version of a dataset shares); immutable marks a snapshot.
	// snaps counts the snapshots taken of a head, and delStamp is the
	// tombstone bitmap's stamp (see Stamp). Appends never need a clone —
	// they write at physical indices no snapshot reaches.
	head      *Relation
	immutable bool
	snaps     uint64
	delStamp  uint64
	// liveOnce/liveRows cache the live-row index on snapshots: a
	// snapshot's row set is frozen, so AllRows/Select(nil) compute it
	// once and every caller shares the same slice (read-only).
	liveOnce sync.Once
	liveRows []int
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	r := &Relation{name: name, schema: schema, cols: make([]*column, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		r.cols[i] = &column{typ: schema.Col(i).Type, stamp: r.Stamp()}
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of physical rows, including tombstoned ones.
// Row indices range over [0, Len()); use Live for the count of
// non-deleted rows.
func (r *Relation) Len() int { return r.n }

// Live returns the number of non-deleted rows.
func (r *Relation) Live() int { return r.n - r.nDeleted }

// Version returns the mutation counter: it increases monotonically with
// every Append, Delete, and Set. Two reads returning the same version
// bracket an unchanged relation.
func (r *Relation) Version() uint64 { return r.version }

// Cells is one column's cells for FromColumns: F holds a DOUBLE
// column's, I a BIGINT column's and S a TEXT column's; the other two
// are nil.
type Cells struct {
	F []float64
	I []int64
	S []string
}

// FromColumns makes a relation of n rows at the given version that
// adopts cols, one per schema column, as its storage: nothing is copied,
// and the caller no longer owns the slices. It is how a decoder that
// fills typed columns itself (a snapshot, the CSV range decode) hands
// them over. A column whose slice does not hold n cells of its schema
// type is ErrTypeMismatch.
func FromColumns(name string, schema Schema, cols []Cells, n int, version uint64) (*Relation, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("%w: %d columns for a schema of %d", ErrTypeMismatch, len(cols), schema.Len())
	}
	r := &Relation{name: name, schema: schema, cols: make([]*column, len(cols)), n: n, version: version}
	for i, c := range cols {
		// The slice the column's type names holds n cells, the others none.
		typ := schema.Col(i).Type
		if own := [...]int{Float: len(c.F), Int: len(c.I), String: len(c.S)}[typ]; own != n || len(c.F)+len(c.I)+len(c.S) != n {
			return nil, fmt.Errorf("%w: column %q does not hold %d %s cells", ErrTypeMismatch, schema.Col(i).Name, n, typ)
		}
		r.cols[i] = &column{typ: typ, f: c.F, i: c.I, s: c.S, stamp: r.Stamp()}
	}
	return r, nil
}

// Snapshot returns an immutable, version-stamped view of the relation's
// current state. The view shares column storage with the head relation:
// taking one copies only the slice headers and counts the snapshot on
// the head, which ends the head's current copy-on-write epoch (see
// Stamp): later head mutations clone just the columns (or tombstone
// bitmap) they touch, each at most once per snapshot, so snapshots are
// cheap regardless of relation size. Snapshots reject every mutating
// method with ErrImmutable; Snapshot of a snapshot returns the snapshot
// itself.
//
// Concurrency contract: Snapshot must be serialized with mutations
// (callers hold the same narrow lock that guards Append/Set/Delete) and
// with other Snapshots of the head, but once taken, a snapshot may be
// read freely — without any lock — while the head keeps mutating.
func (r *Relation) Snapshot() *Relation {
	if r.immutable {
		return r
	}
	cols := make([]*column, len(r.cols))
	for i, c := range r.cols {
		cc := *c
		cols[i] = &cc
	}
	r.snaps++
	return &Relation{
		name:      r.name,
		schema:    r.schema,
		cols:      cols,
		n:         r.n,
		deleted:   r.deleted,
		nDeleted:  r.nDeleted,
		version:   r.version,
		head:      r,
		immutable: true,
	}
}

// Stamp is the copy-on-write stamp a head writer gives storage it
// allocates or clones now: one more than the number of snapshots taken of
// the head so far, so zero is never current. Stamp and Owns are the one
// copy-on-write rule of a head and of everything maintained over it (a
// partitioning's member lists too), read under the lock that serializes
// mutations.
func (r *Relation) Stamp() uint64 { return r.snaps + 1 }

// Owns reports whether storage stamped s was allocated since the latest
// Snapshot: no snapshot, and no view bound to one, can reach it, so the
// writer may edit it in place. Otherwise the writer clones it first and
// stamps the clone, so storage is cloned at most once per snapshot.
func (r *Relation) Owns(s uint64) bool { return s == r.Stamp() }

// Identity returns the head relation this value is a version of:
// snapshots return the relation they were taken from, heads return
// themselves. Two views of the same dataset share an identity even
// though they are distinct pointers, so caches keyed by identity and
// version keep matching across snapshots.
func (r *Relation) Identity() *Relation {
	if r.head != nil {
		return r.head
	}
	return r
}

// cowCol clones column col's backing array unless the head owns it (see
// Stamp), so the in-place write about to happen cannot be observed
// through a snapshot's copied slice header.
func (r *Relation) cowCol(col int) {
	c := r.cols[col]
	if r.Owns(c.stamp) {
		return
	}
	c.f, c.i, c.s = cowClone(c.f), cowClone(c.i), cowClone(c.s)
	c.stamp = r.Stamp()
}

// cowClone copies a backing array whole, capacity included (at cap ==
// len the next Append would copy the column again), rather than zeroing
// a fresh array first: a numeric column's clone is written once, not
// twice. An empty slice (a column's other two) is returned as it is.
func cowClone[T any](s []T) []T {
	if len(s) == 0 {
		return s
	}
	return slices.Clone(s[:cap(s)])[:len(s)]
}

// cowDeleted clones the tombstone bitmap unless the head owns it (see
// cowCol).
func (r *Relation) cowDeleted() {
	if r.Owns(r.delStamp) {
		return
	}
	nd := make([]bool, len(r.deleted), r.n)
	copy(nd, r.deleted)
	r.deleted, r.delStamp = nd, r.Stamp()
}

// Deleted reports whether a row has been tombstoned.
func (r *Relation) Deleted(row int) bool {
	return r.deleted != nil && r.deleted[row]
}

// Delete tombstones a row: its physical cells remain addressable (row
// indices never shift) but Select, AllRows, and Live skip it. Deleting
// an out-of-range or already-deleted row is an error, leaving the
// relation unchanged.
func (r *Relation) Delete(row int) error {
	if r.immutable {
		return fmt.Errorf("%w: Delete on snapshot of %q", ErrImmutable, r.name)
	}
	if row < 0 || row >= r.n {
		return fmt.Errorf("relation: delete of row %d out of range [0, %d)", row, r.n)
	}
	if r.deleted != nil && r.deleted[row] {
		return fmt.Errorf("relation: row %d is already deleted", row)
	}
	if r.deleted == nil {
		r.deleted, r.delStamp = make([]bool, r.n), r.Stamp()
	} else {
		r.cowDeleted()
		if len(r.deleted) < r.n {
			r.deleted = append(r.deleted, make([]bool, r.n-len(r.deleted))...)
		}
	}
	r.deleted[row] = true
	r.nDeleted++
	r.version++
	return nil
}

// Set overwrites one cell in place (Int↔Float coercion permitted where
// lossless, as in Append). The row may not be deleted.
func (r *Relation) Set(row, col int, v Value) error {
	if r.immutable {
		return fmt.Errorf("%w: Set on snapshot of %q", ErrImmutable, r.name)
	}
	if row < 0 || row >= r.n {
		return fmt.Errorf("relation: set on row %d out of range [0, %d)", row, r.n)
	}
	if col < 0 || col >= len(r.cols) {
		return fmt.Errorf("relation: set on column %d out of range [0, %d)", col, len(r.cols))
	}
	if r.Deleted(row) {
		return fmt.Errorf("relation: set on deleted row %d", row)
	}
	r.cowCol(col)
	c := r.cols[col]
	switch c.typ {
	case Float:
		f, err := v.Float()
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, r.schema.Col(col).Name)
		}
		c.f[row] = f
	case Int:
		if v.typ == Float && v.f != math.Trunc(v.f) {
			return fmt.Errorf("relation: cannot store non-integral %g in BIGINT column %q", v.f, r.schema.Col(col).Name)
		}
		i, err := v.Int()
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, r.schema.Col(col).Name)
		}
		c.i[row] = i
	default:
		s, err := v.Str()
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, r.schema.Col(col).Name)
		}
		c.s[row] = s
	}
	r.version++
	return nil
}

// CheckRow validates a row against the schema without mutating the
// relation: the arity must match and every value must be storable in
// its column (the same rules as Append). Callers that must keep a batch
// of appends atomic validate every row first, then append.
func (r *Relation) CheckRow(vals []Value) error {
	if len(vals) != r.schema.Len() {
		return fmt.Errorf("relation: row has %d values, schema %s has %d columns",
			len(vals), r.name, r.schema.Len())
	}
	for i, v := range vals {
		var ok bool
		switch r.cols[i].typ {
		case Float:
			ok = v.typ == Float || v.typ == Int
		case Int:
			ok = v.typ == Int || (v.typ == Float && v.f == math.Trunc(v.f))
		default:
			ok = v.typ == String
		}
		if !ok {
			return fmt.Errorf("relation: cannot store %s in %s column %q",
				v.typ, r.cols[i].typ, r.schema.Col(i).Name)
		}
	}
	return nil
}

// Append adds one row. The number and types of values must match the
// schema (Int↔Float coercion is permitted where lossless). The row is
// validated before any column store is touched, so a failed Append
// leaves the relation unchanged.
func (r *Relation) Append(vals ...Value) error {
	if r.immutable {
		return fmt.Errorf("%w: Append on snapshot of %q", ErrImmutable, r.name)
	}
	if err := r.CheckRow(vals); err != nil {
		return err
	}
	for i, v := range vals {
		if err := r.cols[i].appendValue(v); err != nil {
			return fmt.Errorf("%w (column %q)", err, r.schema.Col(i).Name)
		}
	}
	r.n++
	if r.deleted != nil {
		r.deleted = append(r.deleted, false)
	}
	r.version++
	return nil
}

// AppendFrom copies row src-row of src into r. The schemas must have
// identical column types (names are not checked); it copies the typed
// backing stores directly, with no Value boxing and no per-cell type
// dispatch, so it cannot fail on data grounds.
func (r *Relation) AppendFrom(src *Relation, row int) error {
	if r.immutable {
		return fmt.Errorf("%w: AppendFrom on snapshot of %q", ErrImmutable, r.name)
	}
	if len(r.cols) != len(src.cols) {
		return fmt.Errorf("%w: AppendFrom across schemas with %d vs %d columns",
			ErrTypeMismatch, len(r.cols), len(src.cols))
	}
	// Validate every column before touching any store: failing midway
	// would leave ragged columns (silent corruption on later appends).
	for i, dst := range r.cols {
		if dst.typ != src.cols[i].typ {
			return fmt.Errorf("%w: AppendFrom column %q is %s, source is %s",
				ErrTypeMismatch, r.schema.Col(i).Name, dst.typ, src.cols[i].typ)
		}
	}
	for i, dst := range r.cols {
		sc := src.cols[i]
		switch dst.typ {
		case Float:
			dst.f = append(dst.f, sc.f[row])
		case Int:
			dst.i = append(dst.i, sc.i[row])
		default:
			dst.s = append(dst.s, sc.s[row])
		}
	}
	r.n++
	if r.deleted != nil {
		r.deleted = append(r.deleted, false)
	}
	r.version++
	return nil
}

// Value returns the cell at (row, col).
func (r *Relation) Value(row, col int) Value { return r.cols[col].value(row) }

// Float returns the numeric cell at (row, col) as float64. String
// columns yield NaN; callers validate column types up front (the PaQL
// translator rejects numeric aggregates over TEXT columns), so NaN only
// appears when that validation is bypassed — and then it poisons the
// result instead of crashing.
func (r *Relation) Float(row, col int) float64 { return r.cols[col].float(row) }

// Str returns the string cell at (row, col), or "" for numeric columns.
func (r *Relation) Str(row, col int) string {
	c := r.cols[col]
	if c.typ != String {
		return ""
	}
	return c.s[row]
}

// FloatColumn returns the backing float64 slice of a Float column, for
// hot-path scans. It returns nil for non-Float columns.
func (r *Relation) FloatColumn(col int) []float64 {
	if r.cols[col].typ != Float {
		return nil
	}
	return r.cols[col].f
}

// IntColumn returns the backing int64 slice of an Int column, or nil.
func (r *Relation) IntColumn(col int) []int64 {
	if r.cols[col].typ != Int {
		return nil
	}
	return r.cols[col].i
}

// Row materializes one row as a Value slice.
func (r *Relation) Row(row int) []Value {
	out := make([]Value, r.schema.Len())
	for c := range out {
		out[c] = r.Value(row, c)
	}
	return out
}

// Select returns the indices of all live (non-deleted) rows satisfying
// pred. A nil predicate selects every live row — on snapshots this
// shares the cached index (see AllRows), so callers must treat the
// result as read-only.
func (r *Relation) Select(pred Predicate) []int {
	if pred == nil {
		return r.AllRows()
	}
	rows := r.scanLive()
	return pred.Bind(r)(rows, rows)
}

// Count returns len(Select(pred)) without holding the rows: the live rows
// go through pred's selection a fixed-size block at a time.
func (r *Relation) Count(pred Predicate) int {
	if pred == nil {
		return r.Live()
	}
	sel := pred.Bind(r)
	block := make([]int, 0, 1024)
	n := 0
	for i := 0; i < r.n; i++ {
		if !r.Deleted(i) {
			block = append(block, i)
		}
		if len(block) == cap(block) || i == r.n-1 {
			n += len(sel(block, block))
			block = block[:0]
		}
	}
	return n
}

// Subset materializes the given rows into a new relation with the same
// schema. Used to build scaled-down datasets and per-query tables. The
// copy goes through AppendFrom (identical schemas), so it cannot fail.
func (r *Relation) Subset(name string, rows []int) *Relation {
	out := New(name, r.schema)
	for _, i := range rows {
		// The schemas are identical by construction; the error is
		// impossible.
		_ = out.AppendFrom(r, i)
	}
	return out
}

// Compact physically removes every tombstoned row, renumbering the
// survivors downward while preserving their relative order, and returns
// the remap from old to new row indices (-1 for removed rows). It
// returns nil — and leaves the relation untouched, version included —
// when there is nothing to reclaim.
//
// Compact is the one operation that breaks the "row indices are stable"
// contract, so it must only run at explicit reclamation points (the
// durability subsystem's snapshot/compaction cycle, or a service
// shedding tombstone memory): every consumer holding row indices —
// partitionings, cached packages, clients — must be remapped or
// invalidated by the caller. The version is bumped exactly once, so
// version-keyed caches stop matching automatically.
func (r *Relation) Compact() []int {
	if r.immutable || r.nDeleted == 0 {
		// Snapshots are frozen views; reclamation happens on the head
		// relation they were taken from.
		return nil
	}
	remap := make([]int, r.n)
	next := 0
	for i := 0; i < r.n; i++ {
		if r.deleted[i] {
			remap[i] = -1
			continue
		}
		remap[i] = next
		next++
	}
	// Copy survivors into right-sized fresh arrays: filtering in place
	// would keep the old backing capacity (and, for TEXT columns, the
	// tombstoned rows' string headers) reachable — the memory this
	// operation exists to release. The fresh arrays are seen by no
	// snapshot, so they carry the current stamp, and the bitmap is gone.
	for _, c := range r.cols {
		c.f, c.i, c.s = survivors(c.f, remap, next), survivors(c.i, remap, next), survivors(c.s, remap, next)
		c.stamp = r.Stamp()
	}
	r.n = next
	r.deleted = nil
	r.nDeleted = 0
	r.version++
	return remap
}

// survivors copies the cells whose rows remap keeps into a fresh array of
// the n survivors. An empty slice (a column's other two) is returned as
// it is.
func survivors[T any](cells []T, remap []int, n int) []T {
	if len(cells) == 0 {
		return cells
	}
	kept := make([]T, 0, n)
	for i, v := range cells {
		if remap[i] >= 0 {
			kept = append(kept, v)
		}
	}
	return kept
}

// AllRows returns the indices of every live row, in ascending order
// ([0, 1, ..., n-1] when nothing has been deleted). On a snapshot the
// row set is frozen, so the index is computed once and shared by every
// caller — treat the result as read-only (the solve paths only iterate
// it; anything that reorders rows copies first).
func (r *Relation) AllRows() []int {
	if r.immutable {
		r.liveOnce.Do(func() { r.liveRows = r.scanLive() })
		return r.liveRows
	}
	return r.scanLive()
}

func (r *Relation) scanLive() []int {
	rows := make([]int, 0, r.Live())
	for i := 0; i < r.n; i++ {
		if !r.Deleted(i) {
			rows = append(rows, i)
		}
	}
	return rows
}
