package sim

// Accessors only tests use: the simulator is always driven by RunUntil or
// RunFor, and nothing outside tests inspects the queue or an event handle.

const maxTime = Time(1<<63 - 1)

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.step(maxTime) {
	}
}

// Pending returns the number of live queued events. Cancelled events are
// removed eagerly and never counted.
func (s *Simulator) Pending() int { return len(s.heap) }

// Cancelled reports whether Cancel was called on this handle.
func (e *Event) Cancelled() bool { return e.done }
