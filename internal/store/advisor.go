package store

import (
	"bytes"
	"path/filepath"
)

// advFile is the advisor-state sidecar inside a store directory. It is
// deliberately NOT part of the snapshot: the snapshot format is strict
// (trailing bytes are corruption), replication ships it verbatim, and
// advisor evidence is advisory — a dataset must recover perfectly
// without it. The sidecar shares the snapshot's framing (magic +
// length + CRC-32C) and atomic tmp+fsync+rename write path.
const advFile = "advisor.paqadv"

// advMagic begins every advisor sidecar; the trailing digits version
// the format. The payload is the advisor's own serialization (JSON
// today) — the store stores bytes, it does not interpret them.
const advMagic = "PAQADV01"

// SaveAdvisorState atomically persists the advisor's serialized
// evidence next to the snapshot. Callable at any time — the sidecar is
// independent of the WAL, so it works even on a closed or poisoned
// store (a final flush on Close must not be refused). A payload equal to
// the last one this store wrote is not written again: a maintenance
// tick with no new evidence costs no file write and no fsync.
func (s *Store) SaveAdvisorState(payload []byte) error {
	if s.advSaved != nil && bytes.Equal(payload, s.advSaved) {
		return nil
	}
	if err := writeFramedFile(filepath.Join(s.dir, advFile), advMagic, payload); err != nil {
		return err
	}
	s.advSaved = bytes.Clone(payload)
	return nil
}

// LoadAdvisorState reads the persisted advisor evidence. A missing
// sidecar is (nil, nil) — a fresh or pre-advisor store; a corrupt one
// is ErrCorrupt, which callers should treat as "start cold", never as
// a recovery failure.
func (s *Store) LoadAdvisorState() ([]byte, error) {
	return readFramedFile(filepath.Join(s.dir, advFile), advMagic)
}
