package vr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plugvolt/internal/sim"
)

func newRail(t *testing.T, s *sim.Simulator, initial float64) *Regulator {
	t.Helper()
	r, err := New(s, Config{CommandLatency: 10 * sim.Microsecond, SlewMVPerUS: 5, InitialMV: initial})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInvalidConfig(t *testing.T) {
	s := sim.New(1)
	if _, err := New(s, Config{SlewMVPerUS: 0}); err == nil {
		t.Fatal("zero slew accepted")
	}
	if _, err := New(s, Config{SlewMVPerUS: 5, CommandLatency: -1}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestInitialOutput(t *testing.T) {
	s := sim.New(1)
	r := newRail(t, s, 1100)
	if r.OutputMV() != 1100 {
		t.Fatalf("initial output %v", r.OutputMV())
	}
	if !r.Settled() {
		t.Fatal("fresh rail not settled")
	}
}

func TestCommandLatencyHoldsOutput(t *testing.T) {
	s := sim.New(1)
	r := newRail(t, s, 1100)
	r.SetTarget(1000)
	s.RunUntil(9 * sim.Microsecond) // still inside command latency
	if r.OutputMV() != 1100 {
		t.Fatalf("output moved during command latency: %v", r.OutputMV())
	}
}

func TestSlewDown(t *testing.T) {
	s := sim.New(1)
	r := newRail(t, s, 1100)
	r.SetTarget(1000) // 100 mV at 5 mV/us = 20 us after 10 us latency
	s.RunUntil(20 * sim.Microsecond)
	want := 1100.0 - 5*10 // 10 us of motion
	if math.Abs(r.OutputMV()-want) > 1e-9 {
		t.Fatalf("mid-slew output %v, want %v", r.OutputMV(), want)
	}
	s.RunUntil(30 * sim.Microsecond)
	if r.OutputMV() != 1000 {
		t.Fatalf("final output %v", r.OutputMV())
	}
	if !r.Settled() {
		t.Fatal("not settled at target")
	}
	if got := r.SettleTime(); got != 30*sim.Microsecond {
		t.Fatalf("SettleTime = %v, want 30us", got)
	}
}

func TestSlewUp(t *testing.T) {
	s := sim.New(1)
	r := newRail(t, s, 900)
	r.SetTarget(950)
	s.RunUntil(15 * sim.Microsecond)
	want := 900.0 + 5*5
	if math.Abs(r.OutputMV()-want) > 1e-9 {
		t.Fatalf("mid up-slew %v want %v", r.OutputMV(), want)
	}
	s.RunUntil(1 * sim.Millisecond)
	if r.OutputMV() != 950 {
		t.Fatalf("final %v", r.OutputMV())
	}
}

func TestPreemptingCommandStartsFromCurrentOutput(t *testing.T) {
	s := sim.New(1)
	r := newRail(t, s, 1100)
	r.SetTarget(900)
	s.RunUntil(20 * sim.Microsecond) // output now 1050
	r.SetTarget(1100)                // reverse mid-flight
	got := r.OutputMV()
	if math.Abs(got-1050) > 1e-9 {
		t.Fatalf("pre-empt point %v, want 1050", got)
	}
	s.RunUntil(21 * sim.Microsecond) // inside new command latency
	if math.Abs(r.OutputMV()-1050) > 1e-9 {
		t.Fatal("moved during new command latency")
	}
	s.RunUntil(50 * sim.Microsecond)
	if r.OutputMV() != 1100 {
		t.Fatalf("reversed target not reached: %v", r.OutputMV())
	}
	if r.Commands != 2 {
		t.Fatalf("Commands = %d", r.Commands)
	}
}

// Property: the output never overshoots the segment between the pre-empt
// point and the target, and always settles exactly at the target.
func TestQuickNoOvershoot(t *testing.T) {
	f := func(rawInit, rawTarget uint16, rawWait uint8) bool {
		s := sim.New(2)
		init := 800 + float64(rawInit%500)
		target := 600 + float64(rawTarget%700)
		r, err := New(s, DefaultConfig(init))
		if err != nil {
			return false
		}
		r.SetTarget(target)
		lo, hi := math.Min(init, target), math.Max(init, target)
		for i := 0; i < 10; i++ {
			s.RunFor(sim.Duration(1+rawWait%50) * sim.Microsecond)
			v := r.OutputMV()
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		s.RunUntil(r.SettleTime() + sim.Microsecond)
		return r.OutputMV() == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOutputMV(b *testing.B) {
	s := sim.New(1)
	r, _ := New(s, DefaultConfig(1100))
	r.SetTarget(900)
	s.RunUntil(15 * sim.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.OutputMV()
	}
}

// TestResetMatchesNew resets a regulator mid-slew, after several commands,
// and requires New's state: settled at the initial voltage with no
// commands counted.
func TestResetMatchesNew(t *testing.T) {
	s := sim.New(1)
	r := newRail(t, s, 1000)
	for _, mv := range []float64{900, 1100, 800} {
		r.SetTarget(mv)
		s.RunFor(15 * sim.Microsecond)
	}
	r.Reset()
	fresh := newRail(t, s, 1000)
	if *r != *fresh {
		t.Fatalf("reset regulator %+v, new one %+v", *r, *fresh)
	}
	if !r.Settled() || r.OutputMV() != 1000 {
		t.Fatalf("reset regulator at %v mV, settled %v", r.OutputMV(), r.Settled())
	}
}
