package store

// Read-only support for the layouts the store no longer writes: v2
// segments of one JSON line per record, served in place and transcoded
// to TLV by Compact, and the v1 one-file-per-record layout, folded into
// TLV segments at Open. Nothing here appends to a legacy file; the read
// fallback, the rescan, replica ingestion and Compact are the only
// callers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sweep/tlv"
)

const (
	recordsDirV1   = "records"
	segSuffixJSONL = ".jsonl"
	// formatJSONL is accepted wherever a segment format travels on the
	// wire, alongside the empty string every pre-TLV peer sends.
	formatJSONL = "jsonl"
)

// record is the v1/v2 on-disk envelope around a result state: one JSON
// line per record inside a v2 segment, one file per record in v1.
type record struct {
	V      int                  `json:"v"`
	ID     string               `json:"id"`
	Result campaign.ResultState `json:"result"`
}

// parseRecordLine validates one v2 segment line as a live record of the
// given shard, returning its id. Garbage lines (crash debris, foreign
// versions, misfiled ids) report false and stay dead bytes.
func parseRecordLine(line []byte, shard string) (string, bool) {
	var rec record
	if json.Unmarshal(line, &rec) != nil || rec.V != FormatVersion ||
		validID(rec.ID) != nil || shardOf(rec.ID) != shard {
		return "", false
	}
	return rec.ID, true
}

// scanLegacyBytes is scanSegmentBytes for a v2 segment: it folds each
// valid line into the location map (and passes it to visit when
// non-nil). A torn final line without its newline parses as garbage.
func (s *Store) scanLegacyBytes(shard string, seg int, data []byte, visit func(id string, l location)) {
	var off int64
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		if id, ok := parseRecordLine(line, shard); ok {
			l := location{shard: shard, seg: seg, off: off, n: int64(len(line))}
			s.loc[id] = l
			if visit != nil {
				visit(id, l)
			}
		}
		off += int64(len(data) - len(rest))
		data = rest
	}
}

// decodeLegacyRecord is decodeRecord for one v2 line.
func decodeLegacyRecord(buf []byte, id string) (campaign.ResultState, bool) {
	var rec record
	if json.Unmarshal(buf, &rec) != nil || rec.V != FormatVersion || rec.ID != id {
		return campaign.ResultState{}, false
	}
	return rec.Result, true
}

// migrateV1 folds a v1 one-file-per-record layout (records/<id>.json)
// into TLV segments and removes it. Files are visited in sorted order so
// migration is deterministic; unreadable or mismatched v1 records —
// which already read as misses in v1 — are dropped rather than carried
// over. Interrupted migrations resume safely: already-migrated records
// are recovered by the segment scan, the leftovers re-migrate on the
// next open.
func (s *Store) migrateV1() (bool, error) {
	recDir := filepath.Join(s.dir, recordsDirV1)
	entries, err := os.ReadDir(recDir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: scan v1 %s: %w", recDir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() && id != "" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	migrated := false
	for _, name := range names {
		path := filepath.Join(recDir, name)
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var rec record
		if json.Unmarshal(data, &rec) != nil || rec.V != FormatVersion ||
			rec.ID != id || validID(id) != nil {
			os.Remove(path)
			continue
		}
		// Re-encode rather than trusting the file's bytes: the result is
		// the same canonical TLV frame Put writes.
		l, err := s.appendLocked(id, tlv.AppendEnvelope(nil, id, &rec.Result))
		if err != nil {
			return migrated, fmt.Errorf("store: migrate %s: %w", id, err)
		}
		s.loc[id] = l
		os.Remove(path)
		migrated = true
	}
	// Succeeds only once every record file is gone; stray files keep
	// the directory (and are retried or ignored next open).
	os.Remove(recDir)
	return migrated, nil
}
