// Checkpoint codec for the streaming epoch engine.
//
// A checkpoint is the engine's entire mutable state at a batch boundary:
// machines done (which, because per-machine seeds are pure functions of the
// machine index, IS the RNG position of the stream), the running aggregate,
// the per-model rollup, the recorded failures, and the folded telemetry
// snapshot. The blob is framed — magic, version, payload length, CRC32,
// JSON payload — and the decoder rejects truncation, corruption and version
// skew with typed errors; it never panics and never silently resumes wrong
// state. A config fingerprint binds the checkpoint to the experiment that
// produced it: resuming under a different seed, fleet size, model cycle,
// sweep or guard config is a mismatch error, while execution shape (batch,
// workers) is deliberately outside the fingerprint and may change freely
// between the original run and the resume.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"

	"plugvolt/internal/core"
	"plugvolt/internal/telemetry"
)

// checkpointMagic opens every checkpoint blob.
var checkpointMagic = [4]byte{'P', 'V', 'F', 'C'}

// CheckpointVersion is the current encoding version. Decoders accept
// exactly this version: the format carries deterministic engine state, so
// cross-version resumption would risk a silently different report. Version
// 2 added the sweep strategy to the fingerprint; version 3 dropped the
// unused DVFS-thread core index from it.
const CheckpointVersion = 3

// checkpointHeaderLen is magic(4) + version(2) + reserved(2) + payload
// length(8) + CRC32(4).
const checkpointHeaderLen = 20

// maxCheckpointPayload bounds the declared payload length so a corrupted
// header cannot demand an absurd allocation. It is a uint64 like the header
// field: 1<<31 overflows a 32-bit int.
const maxCheckpointPayload uint64 = 1 << 31

// Typed checkpoint failure classes. DecodeCheckpoint wraps each in a
// *CheckpointError, so callers can errors.Is against the class or
// errors.As for the detail.
var (
	ErrCheckpointTruncated = errors.New("checkpoint truncated")
	ErrCheckpointMagic     = errors.New("not a plugvolt fleet checkpoint")
	ErrCheckpointVersion   = errors.New("unsupported checkpoint version")
	ErrCheckpointChecksum  = errors.New("checkpoint checksum mismatch")
	ErrCheckpointPayload   = errors.New("malformed checkpoint payload")
	ErrCheckpointMismatch  = errors.New("checkpoint does not match this configuration")
)

// CheckpointError is the typed decode/resume failure: the class (one of the
// Err* sentinels) plus human-readable detail.
type CheckpointError struct {
	Class  error
	Detail string
}

func (e *CheckpointError) Error() string {
	if e.Detail == "" {
		return "fleet: " + e.Class.Error()
	}
	return fmt.Sprintf("fleet: %s: %s", e.Class.Error(), e.Detail)
}

func (e *CheckpointError) Unwrap() error { return e.Class }

func ckptErr(class error, format string, args ...any) *CheckpointError {
	return &CheckpointError{Class: class, Detail: fmt.Sprintf(format, args...)}
}

// Checkpoint is the decoded engine state. The experiment-identity fields
// (Machines..WindowPS) are stored redundantly with the fingerprint so a
// mismatch error can say what differs.
type Checkpoint struct {
	Version      int             `json:"version"`
	Fingerprint  uint64          `json:"fingerprint"`
	Machines     int             `json:"machines"`
	MachinesDone int             `json:"machines_done"`
	BatchesDone  int             `json:"batches_done"`
	Epochs       int             `json:"epochs"`
	Seed         int64           `json:"seed"`
	Attack       string          `json:"attack"`
	Models       []string        `json:"models"`
	WindowPS     int64           `json:"window_ps"`
	Aggregate    Aggregate       `json:"aggregate"`
	ModelRows    []ModelSummary  `json:"by_model"`
	Failures     []*MachineError `json:"failures,omitempty"`
	TotalErrors  int             `json:"total_errors"`
	// Incidents carries the capped flight-recorder bundle list across the
	// boundary (the exact count lives in Aggregate.Incidents), so a resumed
	// run's incident collection is byte-identical to an uninterrupted one.
	// Omitted when flight recording is disabled.
	Incidents []Incident          `json:"incidents,omitempty"`
	Merged    *telemetry.Snapshot `json:"merged"`
}

// fingerprint hashes every config field that can change a result byte —
// the experiment identity. Batch and worker counts are excluded by design:
// they shape execution, never results, so a resume may re-slice freely.
func (cfg *StreamConfig) fingerprint(epochs int, modelNames []string) uint64 {
	h := fnv.New64a()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("machines=%d|epochs=%d|seed=%d|attack=%s|window=%d|", cfg.Machines, epochs, cfg.Seed, cfg.Attack, int64(cfg.Window))
	for _, m := range modelNames {
		put("model=%s|", m)
	}
	// Hash the sweep the machines actually run; the characterizer reads an
	// empty strategy as a full sweep.
	s := cfg.sweep()
	if s.Strategy == "" {
		s.Strategy = core.StrategySweep
	}
	put("sweep=%d,%d,%d,%d,%d,%d,%s,%s|", s.VictimCore, s.Iterations,
		s.OffsetStartMV, s.OffsetEndMV, s.OffsetStepMV, int64(s.SettleWait), s.Class, s.Strategy)
	g := cfg.Guard
	put("guard=%d,%d,%t,%d,%d,%t,%d,%d|", int64(g.PollPeriod), g.PinnedCore, g.PerCoreThreads,
		g.SafeOffsetMV, g.MarginMV, g.VoltageCrossCheck, g.CrossCheckSlackMV, g.CrossCheckPersist)
	// The flight window is experiment identity: it decides which records a
	// captured bundle carries, so a resume must not re-slice it.
	put("flight=%d|", cfg.FlightWindow)
	return h.Sum64()
}

// checkpoint captures the engine state after a completed batch.
func (cfg *StreamConfig) checkpoint(st *streamState, epochs int, modelNames []string) *Checkpoint {
	return &Checkpoint{
		Version:      CheckpointVersion,
		Fingerprint:  cfg.fingerprint(epochs, modelNames),
		Machines:     cfg.Machines,
		MachinesDone: st.machinesDone,
		BatchesDone:  st.batchesDone,
		Epochs:       epochs,
		Seed:         cfg.Seed,
		Attack:       cfg.Attack,
		Models:       modelNames,
		WindowPS:     int64(cfg.Window),
		Aggregate:    st.agg,
		ModelRows:    st.modelRows(),
		Failures:     st.partial.Failures,
		TotalErrors:  st.partial.Total,
		Incidents:    st.incidents,
		Merged:       st.merged,
	}
}

// restore loads a checkpoint into the engine state, after verifying it
// belongs to this configuration.
func (ck *Checkpoint) restore(cfg *StreamConfig, epochs int, modelNames []string, st *streamState) error {
	want := cfg.fingerprint(epochs, modelNames)
	if ck.Fingerprint != want {
		return ckptErr(ErrCheckpointMismatch,
			"checkpoint is for seed %d, %d machines, %d epochs, attack %q, models %v; this run wants seed %d, %d machines, %d epochs, attack %q, models %v",
			ck.Seed, ck.Machines, ck.Epochs, ck.Attack, ck.Models,
			cfg.Seed, cfg.Machines, epochs, cfg.Attack, modelNames)
	}
	st.machinesDone = ck.MachinesDone
	st.batchesDone = ck.BatchesDone
	st.agg = ck.Aggregate
	for i := range ck.ModelRows {
		row := ck.ModelRows[i]
		st.models[row.Model] = &row
	}
	st.partial = &PartialError{Total: ck.TotalErrors, Failures: ck.Failures}
	st.incidents = ck.Incidents
	if ck.Merged != nil {
		st.merged = ck.Merged
	}
	return nil
}

// Encode frames the checkpoint: magic, version, payload length, CRC32 of
// the payload, then the JSON payload. Struct-field JSON keeps the bytes
// deterministic for a given state.
func (ck *Checkpoint) Encode() ([]byte, error) {
	payload, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, checkpointHeaderLen+len(payload))
	copy(buf[0:4], checkpointMagic[:])
	binary.BigEndian.PutUint16(buf[4:6], CheckpointVersion)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	copy(buf[checkpointHeaderLen:], payload)
	return buf, nil
}

// DecodeCheckpoint parses and verifies a checkpoint blob. Every rejection
// is a *CheckpointError wrapping one of the Err* classes; it never panics,
// and a blob that decodes cleanly carries internally-consistent state
// (counts in range, version matched) — resuming from silently wrong state
// is the failure mode this decoder exists to prevent.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < checkpointHeaderLen {
		return nil, ckptErr(ErrCheckpointTruncated, "%d bytes, need at least the %d-byte header", len(data), checkpointHeaderLen)
	}
	if [4]byte(data[0:4]) != checkpointMagic {
		return nil, ckptErr(ErrCheckpointMagic, "magic %q", data[0:4])
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != CheckpointVersion {
		return nil, ckptErr(ErrCheckpointVersion, "version %d, this build reads only version %d", v, CheckpointVersion)
	}
	plen := binary.BigEndian.Uint64(data[8:16])
	if plen > maxCheckpointPayload {
		return nil, ckptErr(ErrCheckpointPayload, "declared payload length %d exceeds the %d limit", plen, maxCheckpointPayload)
	}
	if uint64(len(data)-checkpointHeaderLen) < plen {
		return nil, ckptErr(ErrCheckpointTruncated, "payload declares %d bytes, %d present", plen, len(data)-checkpointHeaderLen)
	}
	payload := data[checkpointHeaderLen : checkpointHeaderLen+int(plen)]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[16:20]) {
		return nil, ckptErr(ErrCheckpointChecksum, "payload CRC32 %08x, header says %08x", sum, binary.BigEndian.Uint32(data[16:20]))
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, ckptErr(ErrCheckpointPayload, "%v", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, ckptErr(ErrCheckpointVersion, "payload version %d disagrees with header version %d", ck.Version, CheckpointVersion)
	}
	if ck.Machines <= 0 || ck.MachinesDone < 0 || ck.MachinesDone > ck.Machines {
		return nil, ckptErr(ErrCheckpointPayload, "machines_done %d out of range for %d machines", ck.MachinesDone, ck.Machines)
	}
	if ck.Epochs < 1 || ck.BatchesDone < 0 || ck.TotalErrors < 0 || ck.TotalErrors > ck.Machines {
		return nil, ckptErr(ErrCheckpointPayload, "inconsistent counters (epochs %d, batches %d, errors %d)", ck.Epochs, ck.BatchesDone, ck.TotalErrors)
	}
	if len(ck.Models) == 0 {
		return nil, ckptErr(ErrCheckpointPayload, "empty model cycle")
	}
	// The folded state must agree with itself: a resume continues exactly
	// this fold, so any disagreement would reach the final report.
	rolled := 0
	for _, m := range ck.ModelRows {
		rolled += m.Machines
	}
	switch {
	case ck.Merged == nil && ck.MachinesDone > 0:
		return nil, ckptErr(ErrCheckpointPayload, "no merged telemetry for %d machines done", ck.MachinesDone)
	case rolled != ck.MachinesDone:
		return nil, ckptErr(ErrCheckpointPayload, "per-model rollups count %d machines, machines_done %d", rolled, ck.MachinesDone)
	case ck.Aggregate.Machines != ck.Machines:
		return nil, ckptErr(ErrCheckpointPayload, "aggregate is for %d machines, checkpoint for %d", ck.Aggregate.Machines, ck.Machines)
	case ck.Aggregate.Errors != ck.TotalErrors:
		return nil, ckptErr(ErrCheckpointPayload, "aggregate counts %d errors, total_errors %d", ck.Aggregate.Errors, ck.TotalErrors)
	case len(ck.Failures) > min(ck.TotalErrors, maxRecordedFailures):
		return nil, ckptErr(ErrCheckpointPayload, "%d recorded failures for %d errors", len(ck.Failures), ck.TotalErrors)
	case len(ck.Incidents) > min(ck.Aggregate.Incidents, maxRecordedIncidents):
		return nil, ckptErr(ErrCheckpointPayload, "%d recorded incidents for %d captures", len(ck.Incidents), ck.Aggregate.Incidents)
	}
	return ck, nil
}

// WriteCheckpointFile atomically replaces path with the encoded checkpoint
// (write to path.tmp, fsync, rename) so a kill mid-write leaves the
// previous boundary's checkpoint intact.
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile reads and decodes a checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}
