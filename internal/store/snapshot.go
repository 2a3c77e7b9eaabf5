package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/partition"
	"repro/internal/relation"
)

// snapMagic begins every snapshot file; the trailing digit versions the
// format.
const snapMagic = "PAQSNAP1"

// PartState is the serialized form of one warm partitioning: enough to
// reconstruct the partitioning (partition.FromGroups) and continue its
// incremental maintenance without any quad-tree rebuild.
type PartState struct {
	Attrs   []string
	Tau     int
	Omega   float64
	Workers int
	Groups  []partition.Group
	// Stats carries the cumulative maintenance counters so a recovered
	// service reports lifetime (not since-boot) work.
	Stats partition.MaintStats
}

// Snapshot is one durable point-in-time image of a dataset: the
// relation (compacted — tombstones are reclaimed before serialization),
// its version, and every warm partitioning.
type Snapshot struct {
	Version uint64
	Rel     *relation.Relation
	Parts   []PartState
}

// encodeSnapshot renders the snapshot payload (framed and checksummed
// by WriteSnapshot) into one buffer made at its exact size.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	rel := s.Rel
	if rel == nil {
		return nil, fmt.Errorf("store: snapshot of nil relation")
	}
	if rel.Live() != rel.Len() {
		return nil, fmt.Errorf("store: snapshot of uncompacted relation (%d tombstones)", rel.Len()-rel.Live())
	}
	if rel.Schema().Len() == 0 && rel.Len() > 0 {
		// decodeSnapshot bounds the row count by the payload, a byte per
		// row at the least, which a row of no cells does not pay.
		return nil, fmt.Errorf("store: snapshot of %d rows with no columns", rel.Len())
	}
	e := &enc{b: make([]byte, 0, snapshotSize(s))}
	e.uvarint(s.Version)
	e.str(rel.Name())
	schema := rel.Schema()
	e.uvarint(uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		col := schema.Col(i)
		e.str(col.Name)
		e.b = append(e.b, byte(col.Type))
	}
	e.uvarint(uint64(rel.Len()))
	// Column-major, matching the relation's storage: one typed run per
	// column, written from the column's slice.
	for c := 0; c < schema.Len(); c++ {
		switch schema.Col(c).Type {
		case relation.Float:
			for _, v := range rel.FloatColumn(c) {
				e.f64(v)
			}
		case relation.Int:
			for _, v := range rel.IntColumn(c) {
				e.varint(v)
			}
		default:
			for r := 0; r < rel.Len(); r++ {
				e.str(rel.Str(r, c))
			}
		}
	}
	e.uvarint(uint64(len(s.Parts)))
	for _, p := range s.Parts {
		e.uvarint(uint64(len(p.Attrs)))
		for _, a := range p.Attrs {
			e.str(a)
		}
		e.uvarint(uint64(p.Tau))
		e.f64(p.Omega)
		e.varint(int64(p.Workers))
		e.uvarint(uint64(len(p.Groups)))
		for _, g := range p.Groups {
			e.uvarint(uint64(len(g.Rows)))
			prev := 0
			for _, r := range g.Rows {
				// Delta-encode the sorted member list.
				e.uvarint(uint64(r - prev))
				prev = r
			}
			e.uvarint(uint64(len(g.Centroid)))
			for _, c := range g.Centroid {
				e.f64(c)
			}
			e.f64(g.Radius)
		}
		for _, v := range statFields(&p.Stats) {
			e.uvarint(*v)
		}
	}
	return e.b, nil
}

// snapshotSize is the length of encodeSnapshot's payload for s.
func snapshotSize(s *Snapshot) int {
	rel, schema := s.Rel, s.Rel.Schema()
	n := uvarintLen(s.Version) + strLen(rel.Name()) + uvarintLen(uint64(schema.Len())) + uvarintLen(uint64(rel.Len()))
	for c := 0; c < schema.Len(); c++ {
		n += strLen(schema.Col(c).Name) + 1
		switch schema.Col(c).Type {
		case relation.Float:
			n += 8 * rel.Len()
		case relation.Int:
			for _, v := range rel.IntColumn(c) {
				n += varintLen(v)
			}
		default:
			for r := 0; r < rel.Len(); r++ {
				n += strLen(rel.Str(r, c))
			}
		}
	}
	n += uvarintLen(uint64(len(s.Parts)))
	for _, p := range s.Parts {
		n += uvarintLen(uint64(len(p.Attrs))) + uvarintLen(uint64(p.Tau)) + 8 +
			varintLen(int64(p.Workers)) + uvarintLen(uint64(len(p.Groups)))
		for _, a := range p.Attrs {
			n += strLen(a)
		}
		for _, g := range p.Groups {
			n += uvarintLen(uint64(len(g.Rows))) + uvarintLen(uint64(len(g.Centroid))) + 8*len(g.Centroid) + 8
			prev := 0
			for _, r := range g.Rows {
				n += uvarintLen(uint64(r - prev))
				prev = r
			}
		}
		for _, v := range statFields(&p.Stats) {
			n += uvarintLen(*v)
		}
	}
	return n
}

// statFields lists a partitioning's maintenance counters in format order.
func statFields(st *partition.MaintStats) []*uint64 {
	return []*uint64{&st.Inserts, &st.Deletes, &st.Updates, &st.Splits, &st.Merges, &st.Heals, &st.Rebuilds}
}

// decodeSnapshot parses a snapshot payload, each column's run straight
// into one typed slice the relation adopts.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &dec{b: payload}
	s := &Snapshot{Version: d.uvarint()}
	name, ncols := d.str(), d.uvarint()
	if ncols > 1<<16 {
		d.corrupt("snapshot claims %d columns", ncols)
	}
	if d.err != nil {
		return nil, d.err
	}
	cols := make([]relation.Column, ncols)
	for i := 0; i < len(cols) && d.err == nil; i++ {
		if cols[i].Name = d.str(); len(d.b) == 0 {
			d.corrupt("truncated column type")
			break
		}
		cols[i].Type, d.b = relation.Type(d.b[0]), d.b[1:]
		if t := cols[i].Type; t != relation.Float && t != relation.Int && t != relation.String {
			d.corrupt("unknown column type %d", t)
		}
	}
	nrows := d.uvarint()
	switch {
	case nrows > maxBatchRows:
		d.corrupt("snapshot claims %d rows", nrows)
	case nrows*max(ncols, 1) > uint64(len(d.b)):
		// Every cell costs at least one payload byte, and encodeSnapshot
		// writes no rows without columns, so a row count the remaining
		// payload cannot possibly hold is corruption — caught BEFORE the
		// columns are allocated, or a ~60-byte hostile file could demand
		// gigabytes. (ncols ≤ 2^16 and nrows ≤ 2^28: no overflow.)
		d.corrupt("snapshot claims %d×%d cells but only %d payload bytes remain", nrows, ncols, len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("%w: empty column name", ErrCorrupt)
		}
	}
	// A duplicate column name (case-insensitive) in a corrupt or hostile
	// snapshot surfaces as a schema error; report it as corruption.
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	cells := make([]relation.Cells, ncols)
	for c, col := range cols {
		switch col.Type {
		case relation.Float:
			if uint64(len(d.b)) < 8*nrows {
				d.corrupt("column %q of %d floats runs past the payload", col.Name, nrows)
				return nil, d.err
			}
			cells[c].F = make([]float64, nrows)
			for r := range cells[c].F {
				cells[c].F[r] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*r:]))
			}
			d.b = d.b[8*nrows:]
		case relation.Int:
			cells[c].I = make([]int64, nrows)
			for r := range cells[c].I {
				cells[c].I[r] = d.varint()
			}
		default:
			cells[c].S = make([]string, nrows)
			for r := range cells[c].S {
				cells[c].S[r] = d.str()
			}
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	// The persisted version is the authoritative counter WAL replay
	// lines up against.
	if s.Rel, err = relation.FromColumns(name, schema, cells, int(nrows), s.Version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	nparts := d.uvarint()
	if nparts > 1<<16 {
		d.corrupt("snapshot claims %d partitionings", nparts)
	}
	for pi := uint64(0); pi < nparts && d.err == nil; pi++ {
		var ps PartState
		nattrs := d.uvarint()
		if nattrs > ncols {
			d.corrupt("partitioning claims %d attributes", nattrs)
		}
		for a := uint64(0); a < nattrs && d.err == nil; a++ {
			ps.Attrs = append(ps.Attrs, d.str())
		}
		ps.Tau, ps.Omega, ps.Workers = int(d.uvarint()), d.f64(), int(d.varint())
		ngroups := d.uvarint()
		if ngroups > nrows+1 {
			d.corrupt("partitioning claims %d groups over %d rows", ngroups, nrows)
		}
		for gi := uint64(0); gi < ngroups && d.err == nil; gi++ {
			var g partition.Group
			// A member costs at least one byte, as a cell does.
			if gn := d.uvarint(); gn > nrows || gn > uint64(len(d.b)) {
				d.corrupt("group claims %d rows", gn)
			} else {
				g.Rows = slices.Grow(g.Rows, int(gn))
				for prev := uint64(0); len(g.Rows) < int(gn) && d.err == nil; {
					if prev += d.uvarint(); prev >= nrows {
						d.corrupt("group member %d out of range [0, %d)", prev, nrows)
					}
					g.Rows = append(g.Rows, int(prev))
				}
			}
			if cn := d.uvarint(); cn != nattrs {
				d.corrupt("centroid of %d dims for %d attributes", cn, nattrs)
			}
			g.Centroid = slices.Grow(g.Centroid, int(nattrs))
			for len(g.Centroid) < int(nattrs) && d.err == nil {
				g.Centroid = append(g.Centroid, d.f64())
			}
			g.Radius = d.f64()
			ps.Groups = append(ps.Groups, g)
		}
		for _, field := range statFields(&ps.Stats) {
			*field = d.uvarint()
		}
		s.Parts = append(s.Parts, ps)
	}
	if len(d.b) != 0 {
		d.corrupt("%d trailing bytes after snapshot", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// writeSnapshotFile frames and writes the snapshot atomically (see
// writeFramedFile).
func writeSnapshotFile(path string, s *Snapshot) error {
	payload, err := encodeSnapshot(s)
	if err != nil {
		return err
	}
	return writeFramedFile(path, payload)
}

// readSnapshotFile loads and verifies a snapshot. A missing file is
// (nil, nil): a fresh store.
func readSnapshotFile(path string) (*Snapshot, error) {
	payload, err := readFramedFile(path)
	if err != nil || payload == nil {
		return nil, err
	}
	s, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// framedHeader is what follows a framed file's magic: a little-endian
// uint64 payload length and the payload's CRC-32C.
const framedHeader = 12

// writeFramedFile frames a payload (snapMagic + length + CRC-32C +
// payload) and replaces path with it atomically — the one writer of the
// snapshot's framing; verifyFramed reads it.
func writeFramedFile(path string, payload []byte) error {
	header := make([]byte, len(snapMagic)+framedHeader)
	copy(header, snapMagic)
	binary.LittleEndian.PutUint64(header[len(snapMagic):], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[len(snapMagic)+8:], crc32.Checksum(payload, castagnoli))
	return WriteFileAtomic(path, header, payload)
}

// readFramedFile loads and verifies a framed file, returning its
// payload. A missing file is (nil, nil).
func readFramedFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return verifyFramed(path, data)
}

// verifyFramed checks a framed file's bytes — magic, length, checksum —
// and returns the payload (aliasing data). It is the one reader of the
// framing: local loads, the leader's snapshot shipping and the
// follower's install all pass through it. Any mismatch is ErrCorrupt.
func verifyFramed(path string, data []byte) ([]byte, error) {
	if len(data) < len(snapMagic)+framedHeader {
		return nil, fmt.Errorf("%w: %s: truncated header", ErrCorrupt, path)
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	length := binary.LittleEndian.Uint64(data[len(snapMagic):])
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+8:])
	payload := data[len(snapMagic)+framedHeader:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: %s: holds %d payload bytes, header says %d", ErrCorrupt, path, len(payload), length)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("%w: %s: fails its checksum", ErrCorrupt, path)
	}
	return payload, nil
}

// tmpSuffix names the temp file WriteFileAtomic stages a replacement
// in: path + tmpSuffix, in the same directory so the rename is atomic.
const tmpSuffix = ".tmp"

// WriteFileAtomic replaces path with the concatenation of parts: written
// to a temp file beside it, fsynced, renamed over the target, directory
// fsynced. A crash at any point leaves either the old file or the new
// one — never a torn mix. It is the store's one durable write besides
// the WAL's frame append; snapshots, shipped snapshots and the
// replication state file all go through it.
//
// A filesystem that rejects fsync on a directory (EPERM) does not fail
// the write: the rename is then as durable as the platform allows. Every
// other directory-fsync error is returned — the file is in place but its
// name may not survive a crash.
func WriteFileAtomic(path string, parts ...[]byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // don't leave an orphaned temp file behind
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// reapTmp drops the temp file a crash mid-WriteFileAtomic may have left
// for path: it was never renamed into place, so it holds nothing durable.
func reapTmp(path string) { os.Remove(path + tmpSuffix) }
