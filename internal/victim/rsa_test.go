package victim

import (
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"slices"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/msr"
)

// refSigner is the CRT signer computed directly, with no memo: every
// signature runs square-and-multiply with one IMul and one big.Int
// Mul+Mod per step. The differential tests hold CRTSigner to it on every
// observable.
type refSigner struct {
	key  *RSAKey
	core imulCore
	rng  *mrand.Rand

	steps, faultedSteps int
}

// imulCore is the one instruction refSigner runs per step: *cpu.Core and
// scriptCore.
type imulCore interface {
	IMul(a, b uint64) (uint64, bool, error)
}

func newRefSigner(key *RSAKey, core imulCore, seed int64) *refSigner {
	return &refSigner{key: key, core: core, rng: mrand.New(mrand.NewSource(seed))}
}

func (r *refSigner) sign(m *big.Int) (*big.Int, bool, error) {
	r.steps, r.faultedSteps = 0, 0
	k := r.key
	sp, err := r.exp(m, k.Dp, k.P)
	if err != nil {
		return nil, false, err
	}
	sq, err := r.exp(m, k.Dq, k.Q)
	if err != nil {
		return nil, false, err
	}
	h := new(big.Int).Sub(sp, sq)
	if h, err = r.mul(h.Mod(h, k.P), k.Qinv, k.P); err != nil {
		return nil, false, err
	}
	sig := new(big.Int).Mul(h, k.Q)
	sig.Add(sig, sq)
	return sig.Mod(sig, k.N), r.faultedSteps > 0, nil
}

func (r *refSigner) exp(base, e, mod *big.Int) (*big.Int, error) {
	b := new(big.Int).Mod(base, mod)
	z := big.NewInt(1)
	var err error
	for i := e.BitLen() - 1; i >= 0; i-- {
		if z, err = r.mul(z, z, mod); err != nil {
			return nil, err
		}
		if e.Bit(i) == 1 {
			if z, err = r.mul(z, b, mod); err != nil {
				return nil, err
			}
		}
	}
	return z, nil
}

// mul is one step: x·y mod mod, with the core fed the low 64 bits of each
// operand (forced odd) and one rng-drawn bit of the product flipped when
// the core faults it.
func (r *refSigner) mul(x, y, mod *big.Int) (*big.Int, error) {
	r.steps++
	mask := new(big.Int).SetUint64(^uint64(0))
	a := new(big.Int).And(x, mask).Uint64() | 1
	b := new(big.Int).And(y, mask).Uint64() | 1
	_, faulted, err := r.core.IMul(a, b)
	if err != nil {
		return nil, err
	}
	prod := new(big.Int).Mul(x, y)
	if faulted {
		r.faultedSteps++
		bit := r.rng.Intn(max(prod.BitLen(), 1))
		prod.Xor(prod, new(big.Int).Lsh(big.NewInt(1), uint(bit)))
	}
	return prod.Mod(prod, mod), nil
}

// scriptCore is a FaultyCore on a script: it numbers the multiplications
// it executes, faults the ones whose indices are in faults, and fails
// every one from index crashAt on with cpu.ErrCrashed (never when
// crashAt < 0). Its IMul is a one-multiplication run, for refSigner.
type scriptCore struct {
	faults  map[int]bool
	crashAt int
	ran     int // multiplications executed, crashed ones included
}

func (c *scriptCore) IMuls(n int) (done int, faulted bool, err error) {
	for ; done < n; done++ {
		i := c.ran
		c.ran++
		if c.crashAt >= 0 && i >= c.crashAt {
			return done, false, cpu.ErrCrashed
		}
		if c.faults[i] {
			return done + 1, true, nil
		}
	}
	return done, false, nil
}

func (c *scriptCore) IMul(a, b uint64) (uint64, bool, error) {
	_, faulted, err := c.IMuls(1)
	return a * b, faulted, err
}

// signCall is one Sign call of a differential run: the key both signers
// hold for it and the digest they sign.
type signCall struct {
	key *RSAKey
	m   *big.Int
}

// signObs is what one Sign call shows its caller.
type signObs struct {
	sig                 *big.Int
	faulted             bool
	err                 error
	steps, faultedSteps int
}

func (o signObs) String() string {
	return fmt.Sprintf("sig %v faulted %v err %v steps %d faulted steps %d",
		o.sig, o.faulted, o.err, o.steps, o.faultedSteps)
}

// outcome names what the call released: a signature with its count of
// faulted steps, or an error.
func (o signObs) outcome() string {
	switch {
	case errors.Is(o.err, cpu.ErrCrashed):
		return "crash"
	case o.err != nil:
		return o.err.Error()
	case o.faulted:
		return fmt.Sprintf("faulty %d", o.faultedSteps)
	}
	return "clean"
}

func sameObs(a, b signObs) bool {
	sameSig := (a.sig == nil) == (b.sig == nil) && (a.sig == nil || a.sig.Cmp(b.sig) == 0)
	return sameSig && a.faulted == b.faulted && a.err == b.err && a.steps == b.steps &&
		a.faultedSteps == b.faultedSteps
}

// diffSigners runs calls in order on a CRTSigner and a refSigner, each on
// its own scriptCore with the same script, and fails at the first
// observable that differs: signature, faulted flag, error, Steps and
// FaultedSteps after each call, then the multiplications each core
// executed in all and the next draw of each signer's rng. It returns the
// CRTSigner's observations.
func diffSigners(t testing.TB, calls []signCall, faults []int, crashAt int) []signObs {
	t.Helper()
	script := map[int]bool{}
	for _, i := range faults {
		script[i] = true
	}
	core, refCore := &scriptCore{faults: script, crashAt: crashAt}, &scriptCore{faults: script, crashAt: crashAt}
	s, err := NewCRTSigner(calls[0].key, core, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSigner(calls[0].key, refCore, 5)
	var obs []signObs
	for n, c := range calls {
		var got, want signObs
		s.Key, ref.key = c.key, c.key
		got.sig, got.faulted, got.err = s.Sign(c.m)
		want.sig, want.faulted, want.err = ref.sign(c.m)
		got.steps, got.faultedSteps = s.Steps, s.FaultedSteps
		want.steps, want.faultedSteps = ref.steps, ref.faultedSteps
		if !sameObs(got, want) {
			t.Fatalf("call %d:\n  replay    %v\n  reference %v", n, got, want)
		}
		obs = append(obs, got)
		if got.sig != nil {
			// The caller owns the signature: scribbling on it must not
			// reach the next call.
			obs[n].sig = new(big.Int).Set(got.sig)
			got.sig.SetInt64(-1)
		}
	}
	if core.ran != refCore.ran {
		t.Fatalf("the replay's core executed %d multiplications, the reference's %d", core.ran, refCore.ran)
	}
	if got, want := s.rng.Int63(), ref.rng.Int63(); got != want {
		t.Fatalf("next rng draw %d, reference %d", got, want)
	}
	return obs
}

// schedule lists one signature's steps under k: 's' squares and 'm'
// multiplies by the base in the p half, 'S' and 'M' in the q half, and
// 'g' is the Garner step.
func schedule(k *RSAKey) []byte {
	var out []byte
	for half, e := range []*big.Int{k.Dp, k.Dq} {
		for i := e.BitLen() - 1; i >= 0; i-- {
			out = append(out, "sS"[half])
			if e.Bit(i) == 1 {
				out = append(out, "mM"[half])
			}
		}
	}
	return append(out, 'g')
}

func mustKey(t testing.TB, bits int, seed int64) *RSAKey {
	t.Helper()
	k, err := GenerateRSAKey(bits, seed)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSignReplayMatchesReference(t *testing.T) {
	k, k2 := mustKey(t, 512, 11), mustKey(t, 512, 12)
	m, m2 := k.HashToInt([]byte("replay")), k.HashToInt([]byte("replay 2"))
	sched := schedule(k)
	n := len(sched)
	square := 100 + slices.Index(sched[100:], 's')
	mul := 100 + slices.Index(sched[100:], 'm')
	firstQ := slices.Index(sched, 'S')
	if square < 100 || mul < 100 || firstQ < mul || sched[n-1] != 'g' {
		t.Fatalf("schedule of %d steps: square %d, multiply %d, first q-half step %d", n, square, mul, firstQ)
	}
	three := []signCall{{k, m}, {k, m}, {k, m}}
	for _, tc := range []struct {
		name    string
		calls   []signCall
		faults  []int
		crashAt int
		want    []string // each call's outcome
	}{
		{"no fault", three, nil, -1, []string{"clean", "clean", "clean"}},
		{"step 0", three, []int{0}, -1, []string{"faulty 1", "clean", "clean"}},
		{"squaring", three, []int{n + square}, -1, []string{"clean", "faulty 1", "clean"}},
		{"multiply", three, []int{mul}, -1, []string{"faulty 1", "clean", "clean"}},
		{"first q-half step", three, []int{firstQ}, -1, []string{"faulty 1", "clean", "clean"}},
		{"Garner step", three, []int{3*n - 1}, -1, []string{"clean", "clean", "faulty 1"}},
		{"two faults", three, []int{square, firstQ + 3}, -1, []string{"faulty 2", "clean", "clean"}},
		{"faults in consecutive calls", three, []int{n - 1, n + 1}, -1, []string{"faulty 1", "faulty 1", "clean"}},
		{"crash before a fault", three, []int{n + mul}, square, []string{"crash", "crash", "crash"}},
		{"crash after a fault", three, []int{mul}, n + firstQ, []string{"faulty 1", "crash", "crash"}},
		{"crash at the faulted step", three, []int{mul}, mul, []string{"crash", "crash", "crash"}},
		{"swapped key", []signCall{{k, m}, {k2, m}, {k, m}}, []int{n + 40}, -1, []string{"clean", "faulty 1", "clean"}},
		{"changed digest", []signCall{{k, m}, {k, m2}, {k, m}}, []int{n + 40}, -1, []string{"clean", "faulty 1", "clean"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := diffSigners(t, tc.calls, tc.faults, tc.crashAt)
			for i, o := range obs {
				if got := o.outcome(); got != tc.want[i] {
					t.Fatalf("call %d: %s, want %s", i, got, tc.want[i])
				}
				if o.err == nil && tc.calls[i].key.Verify(tc.calls[i].m, o.sig) == o.faulted {
					t.Fatalf("call %d: faulted %v, and the signature verifies %v", i, o.faulted, o.faulted)
				}
			}
		})
	}
}

// signTwins signs m on s and on ref, whose cores are core 0 of p and of
// its twin refP, and fails at the first observable that differs, the
// cores' Retired and Faulted counts included. It returns what s showed.
func signTwins(t *testing.T, what string, s *CRTSigner, ref *refSigner, p, refP *cpu.Platform, m *big.Int) signObs {
	t.Helper()
	var got, want signObs
	got.sig, got.faulted, got.err = s.Sign(m)
	want.sig, want.faulted, want.err = ref.sign(m)
	got.steps, got.faultedSteps = s.Steps, s.FaultedSteps
	want.steps, want.faultedSteps = ref.steps, ref.faultedSteps
	if !sameObs(got, want) {
		t.Fatalf("%s:\n  replay    %v\n  reference %v", what, got, want)
	}
	if c, rc := p.Core(0), refP.Core(0); c.Retired != rc.Retired || c.Faulted != rc.Faulted {
		t.Fatalf("%s: core retired %d faulted %d, reference %d and %d", what, c.Retired, c.Faulted, rc.Retired, rc.Faulted)
	}
	return got
}

// sameNextDraws fails unless the twin simulators' next draws agree, and the
// two signers' next rng draws do.
func sameNextDraws(t *testing.T, s *CRTSigner, ref *refSigner, p, refP *cpu.Platform) {
	t.Helper()
	if got, want := p.Sim.Rand().Int63(), refP.Sim.Rand().Int63(); got != want {
		t.Fatalf("next Sim.Rand() draw %d, reference %d", got, want)
	}
	if got, want := s.rng.Int63(), ref.rng.Int63(); got != want {
		t.Fatalf("next signer rng draw %d, reference %d", got, want)
	}
}

// The replay on an undervolted cpu.Core: two twin platforms sit in the
// same fault window, one signs through CRTSigner and the other through
// refSigner, and every observable, the cores' retired and faulted counts
// and the next simulator draw must agree after each signature.
func TestSignReplayMatchesReferenceOnCore(t *testing.T) {
	p, refP := newPlatform(t, 6), newPlatform(t, 6)
	undervoltIntoFaultWindow(t, p, 0)
	undervoltIntoFaultWindow(t, refP, 0)
	k := mustKey(t, 512, 13)
	m := k.HashToInt([]byte("plundervolt"))
	s, err := NewCRTSigner(k, p.Core(0), 17)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSigner(k, refP.Core(0), 17)
	faulted := 0
	for i := 0; i < 150; i++ {
		if signTwins(t, fmt.Sprintf("signature %d", i), s, ref, p, refP, m).faulted {
			faulted++
		}
	}
	sameNextDraws(t, s, ref, p, refP)
	if faulted == 0 || faulted == 150 {
		t.Fatalf("%d of 150 signatures faulted: the window should mix clean and faulty ones", faulted)
	}
}

// The replay across a crash on a cpu.Core: twin platforms step the
// undervolt deeper from the fault onset, one millivolt at a time with a few
// signatures at each offset, until the core machine-checks mid-signature;
// both then reboot and sign at the power-on point. Every observable agrees
// with refSigner's after each signature, and Steps counts the step the
// crash hit.
func TestSignReplayMatchesReferenceAcrossCrash(t *testing.T) {
	p, refP := newPlatform(t, 8), newPlatform(t, 8)
	c := p.Core(0)
	k := mustKey(t, 512, 13)
	m := k.HashToInt([]byte("plundervolt"))
	s, err := NewCRTSigner(k, c, 17)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSigner(k, refP.Core(0), 17)
	onset := 0
	for off := -1; onset == 0 && off >= -400; off-- {
		if pf, _ := c.PredictProbabilities(cpu.ClassIMul, off); pf >= 1e-6 {
			onset = off
		}
	}
	if onset == 0 {
		t.Fatal("no fault onset")
	}
	var crashed signObs
	clean, faulty := 0, 0
	for off := onset; crashed.err == nil; off-- {
		if off < onset-300 {
			t.Fatalf("no crash from %d to %d mV", onset, off)
		}
		for _, q := range []*cpu.Platform{p, refP} {
			if err := q.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
				t.Fatal(err)
			}
			q.SettleAll()
		}
		for i := 0; i < 4 && crashed.err == nil; i++ {
			retired := c.Retired
			o := signTwins(t, fmt.Sprintf("%d mV, signature %d", off, i), s, ref, p, refP, m)
			switch {
			case o.err != nil:
				crashed = o
				// The crashed step is counted, and it did not retire.
				if !errors.Is(o.err, cpu.ErrCrashed) || o.steps != int(c.Retired-retired)+1 || o.steps < 2 {
					t.Fatalf("%d mV: %v after %d steps, %d retired", off, o.err, o.steps, c.Retired-retired)
				}
			case o.faulted:
				faulty++
			default:
				clean++
			}
		}
	}
	if clean == 0 || faulty == 0 {
		t.Fatalf("%d clean and %d faulty signatures before the crash: the walk should see both", clean, faulty)
	}
	p.Reboot()
	refP.Reboot()
	for i := 0; i < 3; i++ {
		o := signTwins(t, fmt.Sprintf("rebooted, signature %d", i), s, ref, p, refP, m)
		if o.err != nil || o.faulted || !k.Verify(m, o.sig) {
			t.Fatalf("rebooted, signature %d: %v", i, o)
		}
	}
	sameNextDraws(t, s, ref, p, refP)
}

// FuzzSignReplay holds the replaying signer to refSigner on four Sign
// calls, the third under a second key and digest. Each byte pair of picks
// picks a faulted IMul call; crash, when not negative, picks the call from
// which the core stays crashed.
func FuzzSignReplay(f *testing.F) {
	f.Add([]byte{}, int16(-1))
	f.Add([]byte{0, 0}, int16(-1))
	f.Add([]byte{0x00, 0x90, 0x01, 0x10}, int16(-1))
	f.Add([]byte{0x00, 0x40, 0x02, 0x00}, int16(0x0120))
	k, k2 := mustKey(f, 256, 41), mustKey(f, 256, 42)
	m, m2 := k.HashToInt([]byte("fuzz")), k2.HashToInt([]byte("fuzz 2"))
	calls := []signCall{{k, m}, {k, m}, {k2, m2}, {k, m}}
	// Every call is within reach of a fault or the crash.
	reach := len(calls) * max(len(schedule(k)), len(schedule(k2)))
	f.Fuzz(func(t *testing.T, picks []byte, crash int16) {
		var faults []int
		for i := 0; i+1 < len(picks) && len(faults) < 16; i += 2 {
			faults = append(faults, (int(picks[i])<<8|int(picks[i+1]))%reach)
		}
		crashAt := -1
		if crash >= 0 {
			crashAt = int(crash) % reach
		}
		diffSigners(t, calls, faults, crashAt)
	})
}

func TestSignAllocsDoNotGrowWithSteps(t *testing.T) {
	p := newPlatform(t, 5)
	allocs := map[int]float64{}
	for _, bits := range []int{512, 1024} {
		k := mustKey(t, bits, 11)
		s, err := NewCRTSigner(k, p.Core(0), 99)
		if err != nil {
			t.Fatal(err)
		}
		m := k.HashToInt([]byte("allocs"))
		if _, _, err := s.Sign(m); err != nil {
			t.Fatal(err)
		}
		allocs[bits] = testing.AllocsPerRun(20, func() {
			if _, _, err := s.Sign(m); err != nil {
				t.Fatal(err)
			}
		})
		if s.Steps < bits {
			t.Fatalf("%d-bit key: only %d steps per signature", bits, s.Steps)
		}
	}
	if allocs[512] != allocs[1024] || allocs[512] > 8 {
		t.Fatalf("warmed Sign allocates %v (512-bit key) and %v (1024-bit key), want the same small constant",
			allocs[512], allocs[1024])
	}
}
