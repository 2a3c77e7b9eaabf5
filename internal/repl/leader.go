package repl

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/store"
)

// resyncResponse tells a follower its cursor is unusable (the WAL was
// truncated past it, or its version predates the leader's snapshot):
// it must re-bootstrap from the current snapshot.
func resync(w http.ResponseWriter, why string) {
	writeJSON(w, http.StatusConflict, map[string]any{"error": why, "resync": true})
}

// handleWAL serves GET /repl/wal?dataset=...&from_offset=...&base_version=...
// (or &from_version=...): a segment of complete, CRC-framed WAL
// records starting at the follower's cursor, capped at the durable
// sync watermark. Any node with a durable copy of the dataset can
// serve it — chained replication off a follower works — mutability is
// gated separately.
func (n *Node) handleWAL(w http.ResponseWriter, r *http.Request) {
	n.streamReqs.Add(1)
	name := r.URL.Query().Get("dataset")
	ds := n.srv.Dataset(name)
	if ds == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown dataset " + strconv.Quote(name)})
		return
	}
	dur := ds.DurStats()
	if !dur.Durable {
		writeJSON(w, http.StatusPreconditionFailed, map[string]any{"error": "dataset " + name + " is not durable; nothing to ship"})
		return
	}
	walPath := store.WALPath(dur.Dir)

	q := r.URL.Query()
	var from int64
	switch {
	case q.Get("from_offset") != "":
		off, err := strconv.ParseInt(q.Get("from_offset"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad from_offset: " + err.Error()})
			return
		}
		base, err := strconv.ParseUint(q.Get("base_version"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad base_version: " + err.Error()})
			return
		}
		if base != dur.SnapshotVersion {
			// The offset indexes a WAL incarnation a snapshot has since
			// truncated away; byte positions no longer mean anything.
			resync(w, "WAL base moved (snapshot truncated the log)")
			return
		}
		from = off
	case q.Get("from_version") != "":
		ver, err := strconv.ParseUint(q.Get("from_version"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad from_version: " + err.Error()})
			return
		}
		if ver < dur.SnapshotVersion {
			// The log's history before the snapshot is gone; only a
			// snapshot fetch can bridge the gap.
			resync(w, "version predates the leader snapshot")
			return
		}
		from, err = store.OffsetOfVersion(walPath, ver)
		if err != nil {
			if errors.Is(err, store.ErrNotBoundary) {
				resync(w, err.Error())
				return
			}
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
	default:
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "from_offset (with base_version) or from_version required"})
		return
	}

	// Cap the segment at the durable watermark: bytes beyond it could
	// vanish in a leader crash, and a follower that applied them would
	// diverge from the recovered leader.
	seg, end, err := store.ReadWALSegment(walPath, from, dur.WALSyncedBytes, n.cfg.MaxSegmentBytes)
	recheck := ds.DurStats()
	if recheck.SnapshotVersion != dur.SnapshotVersion {
		// A snapshot truncated (and possibly rewrote) the file while we
		// read it; whatever we assembled may be a garbled mix of old and
		// new bytes. The follower's cursor is stale either way.
		resync(w, "WAL truncated during read")
		return
	}
	if err != nil {
		if errors.Is(err, store.ErrNotBoundary) {
			resync(w, err.Error())
			return
		}
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(hdrEpoch, strconv.FormatUint(n.Epoch(), 10))
	h.Set(hdrBaseVersion, strconv.FormatUint(dur.SnapshotVersion, 10))
	h.Set(hdrStartOffset, strconv.FormatInt(from, 10))
	h.Set(hdrEndOffset, strconv.FormatInt(end, 10))
	h.Set(hdrLeaderVersion, strconv.FormatUint(ds.Version(), 10))
	w.WriteHeader(http.StatusOK)
	// Stream in chunks so a large segment does not sit fully buffered in
	// the response writer; each flush puts complete frames on the wire.
	flusher, _ := w.(http.Flusher)
	const chunk = 64 << 10
	for len(seg) > 0 {
		nw := chunk
		if nw > len(seg) {
			nw = len(seg)
		}
		if _, err := w.Write(seg[:nw]); err != nil {
			return // follower hung up; it will resume from its cursor
		}
		n.bytesServed.Add(uint64(nw))
		seg = seg[nw:]
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSnapshot serves GET /repl/snapshot?dataset=...: the raw,
// verified snapshot file — a follower's bootstrap (and resync) image.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("dataset")
	ds := n.srv.Dataset(name)
	if ds == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown dataset " + strconv.Quote(name)})
		return
	}
	dur := ds.DurStats()
	if !dur.Durable {
		writeJSON(w, http.StatusPreconditionFailed, map[string]any{"error": "dataset " + name + " is not durable; nothing to ship"})
		return
	}
	data, version, err := store.ReadSnapshotBytes(dur.Dir)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	n.snapshotsServed.Add(1)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(hdrEpoch, strconv.FormatUint(n.Epoch(), 10))
	h.Set(hdrSnapVersion, strconv.FormatUint(version, 10))
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		return
	}
	n.bytesServed.Add(uint64(len(data)))
}
