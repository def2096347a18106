// Package fixture exercises walorder. Loaded under "fixture/service", so
// the journal-before-publish rules apply as in the real internal/service.
package fixture

// Log stands in for wal.Log, whose Append makes a record durable.
type Log struct{}

func (*Log) Append(b []byte) (uint64, error) { return 0, nil }

func encodeSubmitRecord(b *[]byte) {}
func encodeIntentRecord(b *[]byte) {}

type registry struct{}

func (registry) SubmitJobWithID(id int64) {}

type svc struct {
	jrn *Log
	cl  registry
}

func (s *svc) publish(v int) {}

func (s *svc) journalRound(round int64) error { return nil }

func (s *svc) badRound(v int) {
	s.publish(v) // want `publish to subscribers is not dominated by a journal append`
}

func (s *svc) goodRound(v int) {
	_ = s.journalRound(1)
	s.publish(v)
}

func (s *svc) badSubmit() {
	s.cl.SubmitJobWithID(1) // want `before its submit record was journaled`
}

func (s *svc) goodSubmit(b []byte) {
	encodeSubmitRecord(&b)
	_, _ = s.jrn.Append(b)
	s.cl.SubmitJobWithID(1)
}

// intentOnlyDoesNotCoverSubmit: an intent append satisfies the publish
// rule but not the stricter register rule.
func (s *svc) intentOnly(b []byte) {
	encodeIntentRecord(&b)
	_, _ = s.jrn.Append(b)
	s.publish(1)
	s.cl.SubmitJobWithID(1) // want `before its submit record was journaled`
}

// submitAfterAppend: the submit record must be encoded before the append
// that journals it.
func (s *svc) submitAfterAppend(b []byte) {
	_, _ = s.jrn.Append(b)
	encodeSubmitRecord(&b)
	s.cl.SubmitJobWithID(1) // want `before its submit record was journaled`
}

//firmament:journaled fixture: replay consumes the journal, writes re-derive durable records
func (s *svc) replayLike(v int) {
	s.cl.SubmitJobWithID(1)
	s.publish(v)
}
