package cpu

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"plugvolt/internal/models"
	"plugvolt/internal/msr"
)

// sharedCircuitScript drives every core of a fresh platform of spec through
// an undervolt sweep, one instruction class per core, and returns a
// transcript of what each step read: PredictProbabilities before the write,
// then a RunBatch and an IMuls run at the settled point, rebooting after a
// crash. faults and crashes count the upsets the transcript saw.
func sharedCircuitScript(spec *models.Spec, seed int64) (transcript string, faults, crashes int, err error) {
	p, err := NewPlatform(spec, seed)
	if err != nil {
		return "", 0, 0, err
	}
	classes := []Class{ClassIMul, ClassAES, ClassFMA, ClassLoad}
	var sb strings.Builder
	for off := -60; off >= -260; off -= 20 {
		for i, c := range p.Cores() {
			class := classes[i%len(classes)]
			pf, pc := c.PredictProbabilities(class, off)
			fmt.Fprintf(&sb, "core %d %s %d mV: predict %x %x", i, class, off, math.Float64bits(pf), math.Float64bits(pc))
			if err := p.WriteOffsetViaMSR(i, off, msr.PlaneCore); err != nil {
				return "", 0, 0, err
			}
			p.SettleAll()
			res, err := c.RunBatch(class, 200_000)
			fmt.Fprintf(&sb, " batch %+v %v", res, err)
			faults += res.Faults
			if errors.Is(err, ErrCrashed) {
				crashes++
				p.Reboot()
				sb.WriteString("\n")
				continue
			}
			done, faulted, err := c.IMuls(20_000)
			fmt.Fprintf(&sb, " imuls %d %v %v\n", done, faulted, err)
			if faulted {
				faults++
			}
			if errors.Is(err, ErrCrashed) {
				crashes++
				p.Reboot()
			}
		}
	}
	return sb.String(), faults, crashes, nil
}

// TestSharedCircuitConcurrent builds platforms of one Spec on several
// goroutines at once. Every core of every one of them reads the Spec's one
// timing circuit through RunBatch, IMuls and PredictProbabilities; under
// -race this checks that those reads share it safely, and each goroutine's
// transcript must equal a serial run's.
func TestSharedCircuitConcurrent(t *testing.T) {
	spec, err := models.KabyLakeR()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	want := make([]string, workers)
	for w := range want {
		tr, faults, crashes, err := sharedCircuitScript(spec, int64(70+w))
		if err != nil {
			t.Fatal(err)
		}
		if faults == 0 || crashes == 0 {
			t.Fatalf("seed %d: script too weak: %d faults, %d crashes", 70+w, faults, crashes)
		}
		want[w] = tr
	}
	got := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], _, _, errs[w] = sharedCircuitScript(spec, int64(70+w))
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if got[w] != want[w] {
			t.Errorf("seed %d: concurrent transcript differs from the serial run", 70+w)
		}
	}
}
