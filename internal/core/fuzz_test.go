package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzGridFromJSON exercises the grid parser with arbitrary bytes: it must
// never panic and must reject structurally invalid grids.
func FuzzGridFromJSON(f *testing.F) {
	g := syntheticGrid()
	data, _ := g.JSON()
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"freqs_khz":[1],"offsets_mv":[-1],"cells":[[0]]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		parsed, err := GridFromJSON(raw)
		if err != nil {
			return
		}
		// Anything accepted must satisfy the validator's guarantees.
		if err := parsed.Validate(); err != nil {
			t.Fatalf("accepted grid fails validation: %v", err)
		}
		// And support the boundary queries without panicking.
		for _, fr := range parsed.FreqsKHz {
			parsed.OnsetMV(fr)
			parsed.CrashMV(fr)
			parsed.FaultBandWidthMV(fr)
		}
		parsed.MaximalSafeOffsetMV(5)
		parsed.UnsafeSet().Contains(parsed.FreqsKHz[0], -1000)
	})
}

// FuzzGridJSONRoundTrip: any structurally valid grid must survive
// JSON -> parse -> JSON with identical bytes — the property the golden
// conformance suite and the sharded determinism guarantee both lean on.
func FuzzGridJSONRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10))
	f.Add(int64(42), uint8(29), uint8(70))
	f.Fuzz(func(t *testing.T, seed int64, nFreq, nOff uint8) {
		freqs := 1 + int(nFreq%32)
		offs := 1 + int(nOff%64)
		rng := rand.New(rand.NewSource(seed))
		g := &Grid{
			Model:      "fuzz",
			Microcode:  "0x1",
			Seed:       seed,
			Iterations: 1 + rng.Intn(1000),
			Reboots:    rng.Intn(50),
		}
		for i := 0; i < freqs; i++ {
			g.FreqsKHz = append(g.FreqsKHz, (i+1)*100_000)
		}
		for i := 0; i < offs; i++ {
			g.OffsetsMV = append(g.OffsetsMV, -(i + 1))
		}
		g.Cells = make([][]Classification, freqs)
		for fi := range g.Cells {
			row := make([]Classification, offs)
			for oi := range row {
				row[oi] = Classification(rng.Intn(3))
			}
			g.Cells[fi] = row
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("generator produced invalid grid: %v", err)
		}
		data, err := g.JSON()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := GridFromJSON(data)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		again, err := parsed.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("grid JSON not byte-stable across a round trip")
		}
	})
}

// FuzzRowMergeOrdering: the sharded engine's merge must yield the same grid
// for every row-arrival order (rows land by frequency index; reboot counts
// sum). The fuzzer drives the permutation.
func FuzzRowMergeOrdering(f *testing.F) {
	f.Add([]byte{2, 0, 1})
	f.Add([]byte{0xff, 0x01})
	f.Fuzz(func(t *testing.T, order []byte) {
		src := syntheticGrid()
		rows := make([]rowResult, len(src.Cells))
		for fi := range src.Cells {
			rows[fi] = rowResult{fi: fi, row: src.Cells[fi], reboots: fi % 2}
		}
		skeleton := func() *Grid {
			return &Grid{
				Model:      src.Model,
				Microcode:  src.Microcode,
				Iterations: src.Iterations,
				FreqsKHz:   src.FreqsKHz,
				OffsetsMV:  src.OffsetsMV,
				Cells:      make([][]Classification, len(src.Cells)),
			}
		}
		ref := skeleton()
		for _, r := range rows {
			mergeRow(ref, r)
		}
		refJSON, err := ref.JSON()
		if err != nil {
			t.Fatal(err)
		}
		// Fisher-Yates driven by the fuzz input: any byte stream is a
		// schedule.
		perm := make([]int, len(rows))
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			b := 0
			if len(order) > 0 {
				b = int(order[i%len(order)])
			}
			j := b % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		got := skeleton()
		for _, i := range perm {
			mergeRow(got, rows[i])
		}
		gotJSON, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, gotJSON) {
			t.Fatalf("merge order %v changed the grid", perm)
		}
	})
}

// FuzzUnsafeSetFromJSON fuzzes membership on arbitrary parsed sets:
// Contains must be total and monotone in offset.
func FuzzUnsafeSetFromJSON(f *testing.F) {
	u := syntheticGrid().UnsafeSet()
	data, _ := u.JSON()
	f.Add(data)
	f.Add([]byte(`{"onset_mv":{"1000":-5}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		parsed, err := UnsafeSetFromJSON(raw)
		if err != nil {
			return
		}
		// Membership queries must be total and monotone in offset.
		for freq := 0; freq <= 5_000_000; freq += 1_234_567 {
			if parsed.Contains(freq, -50) && !parsed.Contains(freq, -51) {
				t.Fatal("monotonicity violated on parsed set")
			}
			parsed.SafetyMarginMV(freq, -50)
		}
	})
}
