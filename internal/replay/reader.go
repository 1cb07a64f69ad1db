// Replay sources: a fully decoded recording, or a seekable dplog.Reader
// whose epoch sections are decoded on demand. The sectioned v6 log format
// exists for the latter — each replay segment decodes only its own
// sections, concurrently with the other segments, and a single-epoch
// replay touches exactly one section.

package replay

import "doubleplay/internal/dplog"

// Source abstracts where a replay reads its per-epoch logs from: a
// decoded *dplog.Recording (free access) or a *dplog.Reader (per-section
// decode on demand). Epochs are addressed by position in recording
// order; for a full log, position and epoch id coincide. Run,
// CheckpointsFrom and the debug session built on them all read through
// this one interface, so "which bytes back the log" can never change
// what a replay computes.
type Source interface {
	NumEpochs() int
	EpochAt(i int) (*dplog.EpochLog, error)
	Program() string
	Quantum() int64
	FinalHash() uint64
}

// FromRecording adapts a fully decoded recording as a Source.
func FromRecording(rec *dplog.Recording) Source { return recSource{rec} }

// FromReader adapts a seekable log reader as a Source.
func FromReader(rd *dplog.Reader) Source { return readerSource{rd} }

// recSource adapts a fully decoded recording.
type recSource struct{ rec *dplog.Recording }

func (s recSource) NumEpochs() int                         { return len(s.rec.Epochs) }
func (s recSource) EpochAt(i int) (*dplog.EpochLog, error) { return s.rec.Epochs[i], nil }
func (s recSource) Program() string                        { return s.rec.Program }
func (s recSource) Quantum() int64                         { return s.rec.Quantum }
func (s recSource) FinalHash() uint64                      { return s.rec.FinalHash }

// readerSource adapts a seekable log reader. dplog.Reader is safe for
// concurrent use, so segment workers can decode their sections in
// parallel.
type readerSource struct{ rd *dplog.Reader }

func (s readerSource) NumEpochs() int                         { return s.rd.NumSections() }
func (s readerSource) EpochAt(i int) (*dplog.EpochLog, error) { return s.rd.EpochAt(i) }
func (s readerSource) Program() string                        { return s.rd.Header().Program }
func (s readerSource) Quantum() int64                         { return s.rd.Header().Quantum }
func (s readerSource) FinalHash() uint64                      { return s.rd.Header().FinalHash }
