package main

import (
	"runtime/metrics"
	"time"
)

// heapWatch tracks the peak of the live heap, as the garbage collector
// measured it at the end of each cycle, by sampling it every millisecond.
// The live heap is what the program holds; unlike the heap the runtime has
// mapped, it does not depend on how far allocation ran ahead of a
// concurrent collection.
type heapWatch struct {
	quit chan struct{}
	done chan uint64
}

const liveHeap = "/gc/heap/live:bytes"

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: liveHeap}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.quit:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the watch and returns the peak in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.quit)
	return <-h.done
}
