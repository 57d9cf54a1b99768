package main

import (
	"fmt"
	"time"

	"plugvolt"
	"plugvolt/internal/cpu"
	"plugvolt/internal/msr"
	"plugvolt/internal/victim"
)

// probeBlocks is how many timed blocks each isolated call gets; a probe
// reports the median block.
const probeBlocks = 25

// isolatedProbes times single calls into the layers the workloads spend
// their time in, each on a nominal Sky Lake machine, and checks their
// results. Every traced run measures them, whatever its workload.
func isolatedProbes(seed int64) (map[string]float64, error) {
	sys, err := plugvolt.NewSystem("skylake", seed)
	if err != nil {
		return nil, err
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return nil, err
	}
	c := sys.Platform.Core(1)
	vals := map[string]float64{}

	// perCall times fn, which makes n calls, and returns the median
	// per-call time in unit.
	perCall := func(n int, unit time.Duration, fn func() error) (float64, error) {
		var samples []float64
		for b := 0; b < probeBlocks; b++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			samples = append(samples, float64(time.Since(start))/float64(unit)/float64(n))
		}
		return summarize(samples).Median, nil
	}

	key, err := victim.GenerateRSAKey(512, seed)
	if err != nil {
		return nil, err
	}
	signer, err := victim.NewCRTSigner(key, c, seed+1)
	if err != nil {
		return nil, err
	}
	digest := key.HashToInt([]byte("plugvolt benchmark"))
	if vals["victim.sign_us"], err = perCall(4, time.Microsecond, func() error {
		for i := 0; i < 4; i++ {
			sig, faulted, err := signer.Sign(digest)
			if err != nil {
				return err
			}
			if faulted || !key.Verify(digest, sig) {
				return fmt.Errorf("victim.Sign on a nominal core: faulted %v, signature valid %v", faulted, key.Verify(digest, sig))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	const imuls = 10000
	if vals["cpu.imul_ns"], err = perCall(imuls, time.Nanosecond, func() error {
		for i := uint64(1); i <= imuls; i++ {
			got, faulted, err := c.IMul(i, i+7)
			if err != nil || faulted || got != i*(i+7) {
				return fmt.Errorf("cpu.IMul(%d, %d) on a nominal core = %d, faulted %v, err %v", i, i+7, got, faulted, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if vals["cpu.predict_row_us"], err = perCall(1, time.Microsecond, func() error {
		prev := 0.0
		for off := -1; off >= -300; off-- {
			pf, _ := c.PredictProbabilities(cpu.ClassIMul, off)
			if pf < prev {
				return fmt.Errorf("cpu.PredictProbabilities: fault probability falls from %g to %g at %d mV", prev, pf, off)
			}
			prev = pf
		}
		return nil
	}); err != nil {
		return nil, err
	}

	spec := sys.Platform.Spec
	if vals["cpu.new_platform_us"], err = perCall(4, time.Microsecond, func() error {
		for i := int64(0); i < 4; i++ {
			if _, err := cpu.NewPlatform(spec, seed+i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The compiled decision table must agree with the unsafe set it was
	// compiled from on every decision of the stream.
	unsafe := grid.UnsafeSet()
	margin := plugvolt.DefaultGuardConfig().MarginMV
	lut, err := unsafe.Compile(spec.BusMHz, margin)
	if err != nil {
		return nil, err
	}
	const decisions = 4096
	want := 0
	for j := 0; j < decisions; j++ {
		if unsafe.Contains(msr.RatioToKHz(uint8(j*11), spec.BusMHz), -(j*7%300)-margin) {
			want++
		}
	}
	if vals["core.lut_decision_ns"], err = perCall(decisions, time.Nanosecond, func() error {
		got := 0
		for j := 0; j < decisions; j++ {
			if lut.Unsafe(uint8(j*11), -(j * 7 % 300)) {
				got++
			}
		}
		if got != want {
			return fmt.Errorf("core.RatioLUT: %d of %d decisions unsafe, the unsafe set says %d", got, decisions, want)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	const reads = 10000
	offset, err := sys.Kernel.ReadMSRDirect(1, msr.OCMailbox)
	if err != nil {
		return nil, err
	}
	if vals["kernel.rdmsr_ns"], err = perCall(reads, time.Nanosecond, func() error {
		for i := 0; i < reads; i++ {
			v, err := sys.Kernel.ReadMSRDirect(1, msr.OCMailbox)
			if err != nil || v != offset {
				return fmt.Errorf("kernel.ReadMSRDirect(OC mailbox) = %#x, %v; want %#x", v, err, offset)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return vals, nil
}
