package store

import (
	"fmt"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/rs"
	"regsat/internal/schedule"
)

// envelope keys and stamps every record. The engine result it wraps is
// stored as its own JSON (rs.Result, cyclic.Result), so the record schema
// is those types' tags plus the fields below.
type envelope struct {
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Type        string `json:"type"`
	OptionsKey  string `json:"optionsKey"`
	// Kind discriminates record forms sharing the objects tree: empty for
	// acyclic RS records, "cyclic" for periodic loop records. Each reader
	// rejects the other's kind, so a key collision can never cross-decode.
	Kind string `json:"kind,omitempty"`
	// SavedAtUnixNs timestamps the write (diagnostics only; never compared).
	SavedAtUnixNs int64 `json:"savedAtUnixNs"`
}

func (e *envelope) head() *envelope { return e }

// record is an envelope around one engine result; check vets the decoded
// payload against the graph that asks for it.
type record interface {
	head() *envelope
	check(g *ddg.Graph) error
}

// rsRecord is the on-disk form of one rs.Result. Antichains and witness
// times are stored in node-ID space: the fingerprint excludes names, so a
// record written for one graph is valid for every structural twin, and the
// witness schedule is rebuilt over whichever graph asks.
//
// The in-memory killing-function view (rs.Result.Killing) is deliberately
// not persisted — it aliases a live rs.Analysis; everything it proves (the
// saturation, the antichain, the witness) is already here. L2-served
// results therefore carry Killing == nil, which every consumer treats as
// "not available" (exactly like intLP-method results).
type rsRecord struct {
	envelope
	*rs.Result
	// WitnessTimes is the witness schedule's issue time per node ID
	// (including ⊥); nil when the result was computed with SkipWitness.
	WitnessTimes []int64 `json:"witnessTimes,omitempty"`
}

func (rec *rsRecord) check(g *ddg.Graph) error {
	if rec.Result == nil {
		return fmt.Errorf("store: record carries no result")
	}
	for _, id := range rec.Antichain {
		if id < 0 || id >= g.NumNodes() {
			return fmt.Errorf("store: antichain node %d outside graph (%d nodes)", id, g.NumNodes())
		}
	}
	if rec.WitnessTimes != nil && len(rec.WitnessTimes) != g.NumNodes() {
		return fmt.Errorf("store: witness has %d times for %d nodes", len(rec.WitnessTimes), g.NumNodes())
	}
	return nil
}

// cyclicRecord is the on-disk form of one cyclic.Result. Loop fingerprints
// live in their own domain (the "cyclic" prefix inside the hash input), so
// cyclic records share the objects tree and the key scheme with acyclic
// records without any possibility of collision. Results carry no witness or
// graph-indexed data, so a record materializes without the loop in hand.
type cyclicRecord struct {
	envelope
	*cyclic.Result
}

func (rec *cyclicRecord) check(*ddg.Graph) error {
	if rec.Result == nil || len(rec.Windows) == 0 {
		return fmt.Errorf("store: cyclic record carries no windows")
	}
	return nil
}

// Get implements batch.ResultCache: it returns the stored result for
// (fp, t, optsKey) materialized against g, or a miss. Every failure mode —
// missing file, torn or corrupt JSON, schema or key mismatch, a witness
// that does not fit g — is a miss.
func (s *Store) Get(fp string, g *ddg.Graph, t ddg.RegType, optsKey string) (*rs.Result, bool) {
	var rec rsRecord
	if !s.read(fp, g, t, optsKey, "", &rec) {
		return nil, false
	}
	res := rec.Result
	res.Type = t
	if rec.WitnessTimes != nil {
		res.Witness = schedule.New(g, rec.WitnessTimes)
	}
	return res, true
}

// Put implements batch.ResultCache: it persists res under (fp, t, optsKey)
// with an atomic write. Failures are counted and dropped — a full disk must
// not fail an analysis that already succeeded.
func (s *Store) Put(fp string, t ddg.RegType, optsKey string, res *rs.Result) {
	rec := &rsRecord{Result: res}
	if res.Witness != nil {
		rec.WitnessTimes = res.Witness.Times
	}
	s.write(fp, t, optsKey, "", rec)
}

// GetCyclic implements batch.ResultCache for periodic loop results, with
// the same every-failure-is-a-miss protocol as Get.
func (s *Store) GetCyclic(fp string, t ddg.RegType, optsKey string) (*cyclic.Result, bool) {
	var rec cyclicRecord
	if !s.read(fp, nil, t, optsKey, "cyclic", &rec) {
		return nil, false
	}
	rec.Result.Type = t
	return rec.Result, true
}

// PutCyclic implements batch.ResultCache for periodic loop results, with
// the same atomic-write, failures-are-dropped protocol as Put.
func (s *Store) PutCyclic(fp string, t ddg.RegType, optsKey string, res *cyclic.Result) {
	s.write(fp, t, optsKey, "cyclic", &cyclicRecord{Result: res})
}
