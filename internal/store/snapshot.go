package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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
// by WriteSnapshot).
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	rel := s.Rel
	if rel == nil {
		return nil, fmt.Errorf("store: snapshot of nil relation")
	}
	e := &enc{}
	e.uvarint(s.Version)
	e.str(rel.Name())
	schema := rel.Schema()
	e.uvarint(uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		col := schema.Col(i)
		e.str(col.Name)
		e.b.WriteByte(byte(col.Type))
	}
	if rel.Live() != rel.Len() {
		return nil, fmt.Errorf("store: snapshot of uncompacted relation (%d tombstones)", rel.Len()-rel.Live())
	}
	e.uvarint(uint64(rel.Len()))
	// Column-major, matching the relation's storage: one typed run per
	// column compresses and decodes better than row-major boxing.
	for c := 0; c < schema.Len(); c++ {
		switch schema.Col(c).Type {
		case relation.Float:
			for r := 0; r < rel.Len(); r++ {
				e.f64(rel.Float(r, c))
			}
		case relation.Int:
			col := rel.IntColumn(c)
			for r := 0; r < rel.Len(); r++ {
				e.varint(col[r])
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
		for _, v := range []uint64{p.Stats.Inserts, p.Stats.Deletes, p.Stats.Updates,
			p.Stats.Splits, p.Stats.Merges, p.Stats.Heals, p.Stats.Rebuilds} {
			e.uvarint(v)
		}
	}
	return e.b.Bytes(), nil
}

// decodeSnapshot parses a snapshot payload.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &dec{r: bytes.NewReader(payload)}
	s := &Snapshot{}
	var err error
	if s.Version, err = d.uvarint(); err != nil {
		return nil, err
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	ncols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<16 {
		return nil, fmt.Errorf("%w: snapshot claims %d columns", ErrCorrupt, ncols)
	}
	cols := make([]relation.Column, ncols)
	for i := range cols {
		if cols[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		t, err2 := d.r.ReadByte()
		if err2 != nil {
			return nil, fmt.Errorf("%w: truncated column type", ErrCorrupt)
		}
		switch relation.Type(t) {
		case relation.Float, relation.Int, relation.String:
			cols[i].Type = relation.Type(t)
		default:
			return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, t)
		}
	}
	nrows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nrows > maxBatchRows {
		return nil, fmt.Errorf("%w: snapshot claims %d rows", ErrCorrupt, nrows)
	}
	// Every cell costs at least one payload byte, so a row count the
	// remaining payload cannot possibly hold is corruption — caught
	// BEFORE the value grid is allocated, or a ~60-byte hostile file
	// could demand gigabytes. (ncols ≤ 2^16 and nrows ≤ 2^28: no
	// overflow.)
	if ncols > 0 && nrows*ncols > uint64(d.r.Len()) {
		return nil, fmt.Errorf("%w: snapshot claims %d×%d cells but only %d payload bytes remain",
			ErrCorrupt, nrows, ncols, d.r.Len())
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
	rel := relation.New(name, schema)
	// Decode column-major into value grids, then append row-wise.
	grid := make([][]relation.Value, nrows)
	for r := range grid {
		grid[r] = make([]relation.Value, ncols)
	}
	for c := uint64(0); c < ncols; c++ {
		for r := uint64(0); r < nrows; r++ {
			v, err := d.cell(cols[c].Type)
			if err != nil {
				return nil, err
			}
			grid[r][c] = v
		}
	}
	for _, vals := range grid {
		if err := rel.Append(vals...); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	// The rebuild's Appends bumped the version once per row; the
	// persisted version is the authoritative counter WAL replay lines
	// up against.
	rel.RestoreVersion(s.Version)
	s.Rel = rel

	nparts, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nparts > 1<<16 {
		return nil, fmt.Errorf("%w: snapshot claims %d partitionings", ErrCorrupt, nparts)
	}
	for pi := uint64(0); pi < nparts; pi++ {
		var ps PartState
		nattrs, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nattrs > ncols {
			return nil, fmt.Errorf("%w: partitioning claims %d attributes", ErrCorrupt, nattrs)
		}
		for a := uint64(0); a < nattrs; a++ {
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			ps.Attrs = append(ps.Attrs, s)
		}
		tau, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		ps.Tau = int(tau)
		if ps.Omega, err = d.f64(); err != nil {
			return nil, err
		}
		workers, err := d.varint()
		if err != nil {
			return nil, err
		}
		ps.Workers = int(workers)
		ngroups, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ngroups > nrows+1 {
			return nil, fmt.Errorf("%w: partitioning claims %d groups over %d rows", ErrCorrupt, ngroups, nrows)
		}
		for gi := uint64(0); gi < ngroups; gi++ {
			var g partition.Group
			gn, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if gn > nrows {
				return nil, fmt.Errorf("%w: group claims %d rows", ErrCorrupt, gn)
			}
			prev := uint64(0)
			for ri := uint64(0); ri < gn; ri++ {
				delta, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				prev += delta
				if prev >= nrows {
					return nil, fmt.Errorf("%w: group member %d out of range [0, %d)", ErrCorrupt, prev, nrows)
				}
				g.Rows = append(g.Rows, int(prev))
			}
			cn, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if cn != nattrs {
				return nil, fmt.Errorf("%w: centroid of %d dims for %d attributes", ErrCorrupt, cn, nattrs)
			}
			for ci := uint64(0); ci < cn; ci++ {
				v, err := d.f64()
				if err != nil {
					return nil, err
				}
				g.Centroid = append(g.Centroid, v)
			}
			if g.Radius, err = d.f64(); err != nil {
				return nil, err
			}
			ps.Groups = append(ps.Groups, g)
		}
		for _, field := range []*uint64{&ps.Stats.Inserts, &ps.Stats.Deletes, &ps.Stats.Updates,
			&ps.Stats.Splits, &ps.Stats.Merges, &ps.Stats.Heals, &ps.Stats.Rebuilds} {
			if *field, err = d.uvarint(); err != nil {
				return nil, err
			}
		}
		s.Parts = append(s.Parts, ps)
	}
	if d.r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, d.r.Len())
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
