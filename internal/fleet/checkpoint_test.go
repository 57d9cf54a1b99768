package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"

	"plugvolt/internal/sim"
)

// realCheckpoint produces a checkpoint the way the engine does: by halting
// a real streaming run at its first batch boundary.
func realCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	cfg := StreamConfig{
		Config:         Config{Machines: 3, Seed: 9, Attack: "none", Window: sim.Millisecond},
		Batch:          2,
		Epochs:         2,
		CheckpointPath: path,
		Halt:           func(p Progress) bool { return true },
	}
	if _, err := RunStream(cfg); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	ck, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestCheckpointRoundTrip: encode/decode is lossless — the decoded state
// re-encodes to the identical bytes, and the folded telemetry snapshot
// survives with its exposition intact (float values round-trip exactly
// through the JSON payload).
func TestCheckpointRoundTrip(t *testing.T) {
	ck := realCheckpoint(t)
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("checkpoint does not round-trip byte-for-byte")
	}
	var a, b bytes.Buffer
	if err := ck.Merged.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.Merged.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merged snapshot exposition changed across the round trip")
	}
	if back.MachinesDone != 2 || back.Machines != 3 || back.Epochs != 2 {
		t.Fatalf("decoded state %+v", back)
	}
}

// reframe rebuilds a valid frame around an arbitrary payload — for forging
// blobs whose header is consistent but whose payload is wrong.
func reframe(payload []byte) []byte {
	buf := make([]byte, checkpointHeaderLen+len(payload))
	copy(buf[0:4], checkpointMagic[:])
	binary.BigEndian.PutUint16(buf[4:6], CheckpointVersion)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	copy(buf[checkpointHeaderLen:], payload)
	return buf
}

// TestCheckpointDecodeRejections drives every typed rejection class: the
// decoder must classify each malformation, never panic, and never hand back
// state it cannot vouch for.
func TestCheckpointDecodeRejections(t *testing.T) {
	valid, err := realCheckpoint(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(f func([]byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	// forge frames a mutated copy of the valid state: a consistent header
	// around a payload whose state is wrong.
	forge := func(mutate func(*Checkpoint)) []byte {
		ck := mustDecode(t, valid)
		mutate(ck)
		p, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		return reframe(p)
	}
	cases := []struct {
		name  string
		blob  []byte
		class error
	}{
		{"empty", nil, ErrCheckpointTruncated},
		{"short_header", valid[:checkpointHeaderLen-1], ErrCheckpointTruncated},
		{"truncated_payload", valid[:len(valid)-3], ErrCheckpointTruncated},
		{"bad_magic", mangle(func(b []byte) []byte { b[0] = 'X'; return b }), ErrCheckpointMagic},
		{"version_skew", mangle(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[4:6], CheckpointVersion+1)
			return b
		}), ErrCheckpointVersion},
		{"flipped_payload_byte", mangle(func(b []byte) []byte {
			b[checkpointHeaderLen+5] ^= 0xff
			return b
		}), ErrCheckpointChecksum},
		{"absurd_length", mangle(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[8:16], 1<<40)
			return b
		}), ErrCheckpointPayload},
		// Exactly the bound passes the limit check and must then be
		// rejected as truncated, including on 32-bit words.
		{"length_at_bound", mangle(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[8:16], maxCheckpointPayload)
			return b
		}), ErrCheckpointTruncated},
		{"garbage_json", reframe([]byte("{not json")), ErrCheckpointPayload},
		{"payload_version_skew", forge(func(ck *Checkpoint) { ck.Version = CheckpointVersion + 1 }), ErrCheckpointVersion},
		{"machines_done_out_of_range", forge(func(ck *Checkpoint) { ck.MachinesDone = ck.Machines + 1 }), ErrCheckpointPayload},
		{"negative_epochs", forge(func(ck *Checkpoint) { ck.Epochs = 0 }), ErrCheckpointPayload},
		{"empty_models", forge(func(ck *Checkpoint) { ck.Models = nil }), ErrCheckpointPayload},
		// Internally inconsistent fold state: each would resume to a wrong
		// report.
		{"merged_missing", forge(func(ck *Checkpoint) { ck.Merged = nil }), ErrCheckpointPayload},
		{"model_rows_short", forge(func(ck *Checkpoint) { ck.ModelRows = ck.ModelRows[:1] }), ErrCheckpointPayload},
		{"aggregate_machines", forge(func(ck *Checkpoint) { ck.Aggregate.Machines++ }), ErrCheckpointPayload},
		{"aggregate_errors", forge(func(ck *Checkpoint) { ck.Aggregate.Errors++ }), ErrCheckpointPayload},
		{"failures_exceed_errors", forge(func(ck *Checkpoint) { ck.Failures = []*MachineError{{Stage: "boot"}} }), ErrCheckpointPayload},
		{"incidents_exceed_count", forge(func(ck *Checkpoint) { ck.Incidents = []Incident{{Cause: "fault"}} }), ErrCheckpointPayload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCheckpoint(tc.blob)
			if err == nil {
				t.Fatal("malformed checkpoint accepted")
			}
			if !errors.Is(err, tc.class) {
				t.Fatalf("got %v, want class %v", err, tc.class)
			}
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v is not a *CheckpointError", err)
			}
		})
	}
}

func mustDecode(t *testing.T, blob []byte) *Checkpoint {
	t.Helper()
	ck, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestWriteCheckpointFileAtomic: a rewrite leaves no .tmp debris and the
// file always decodes to the latest state.
func TestWriteCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	ck := realCheckpoint(t)
	for i := 0; i < 2; i++ {
		ck.BatchesDone = i + 1
		if err := WriteCheckpointFile(path, ck); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.BatchesDone != 2 {
		t.Fatalf("file holds batch %d, want the latest write", back.BatchesDone)
	}
	if _, err := ReadCheckpointFile(path + ".tmp"); err == nil {
		t.Fatal("temporary file left behind")
	}
	if _, err := ReadCheckpointFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint file read successfully")
	}
}

// FuzzFleetCheckpointDecode: the decoder must never panic and must reject
// every malformed blob with a typed *CheckpointError; anything it accepts
// must re-encode losslessly (no silently-wrong resume state).
func FuzzFleetCheckpointDecode(f *testing.F) {
	// Seed with a real checkpoint and systematic malformations of it.
	cfg := StreamConfig{
		Config:         Config{Machines: 2, Seed: 3, Attack: "none", Window: sim.Millisecond},
		Batch:          1,
		CheckpointPath: filepath.Join(f.TempDir(), "seed.ckpt"),
		Halt:           func(p Progress) bool { return true },
	}
	if _, err := RunStream(cfg); !errors.Is(err, ErrHalted) {
		f.Fatal(err)
	}
	valid, err := ReadCheckpointFile(cfg.CheckpointPath)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := valid.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:checkpointHeaderLen])
	f.Add([]byte("PVFC"))
	f.Add(reframe([]byte(fmt.Sprintf(`{"version":%d}`, CheckpointVersion))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if ck != nil {
				t.Fatal("state returned alongside an error")
			}
			return
		}
		// Accepted: the state must be internally consistent and survive a
		// re-encode/decode cycle with identical JSON.
		if ck.MachinesDone < 0 || ck.MachinesDone > ck.Machines || ck.Epochs < 1 {
			t.Fatalf("accepted inconsistent state %+v", ck)
		}
		re, err := ck.Encode()
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		back, err := DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		j1, _ := json.Marshal(ck)
		j2, _ := json.Marshal(back)
		if !bytes.Equal(j1, j2) {
			t.Fatal("checkpoint state drifts across re-encode")
		}
	})
}

// TestCheckpointCarriesFailures: partial-failure state survives the
// checkpoint so a resumed run reports the same PartialError totals.
func TestCheckpointCarriesFailures(t *testing.T) {
	failpoint = func(stage string, idx int) error {
		if stage == "deploy" && idx == 0 {
			return errors.New("injected")
		}
		return nil
	}
	defer func() { failpoint = nil }()
	base := Config{Machines: 4, Seed: 2, Attack: "none", Window: sim.Millisecond}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	cut := StreamConfig{Config: base, Batch: 2, CheckpointPath: path,
		Halt: func(p Progress) bool { return p.BatchesDone >= 1 }}
	if _, err := RunStream(cut); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	failpoint = nil // the failure happened before the kill; resume is clean
	ck, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunStream(StreamConfig{Config: base, Batch: 2, Resume: ck})
	var partial *PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("resumed run lost the failure: %v", err)
	}
	if partial.Total != 1 || partial.Failures[0].Index != 0 || partial.Failures[0].Stage != "deploy" {
		t.Fatalf("partial %+v", partial)
	}
	if rep.Aggregate.Errors != 1 {
		t.Fatalf("aggregate errors %d, want 1", rep.Aggregate.Errors)
	}
}
