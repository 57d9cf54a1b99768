// Fleet-side incident forensics: every machine can carry a flight recorder
// (internal/flight), and the bundles it captures — frozen pre-fault history
// plus the post-trigger window — surface in the fleet report as a capped,
// machine-index-ordered incident list with per-model and aggregate counts.
//
// The collection discipline mirrors maxRecordedFailures: counts are exact at
// any fleet size, while verbatim bundles are bounded so a million-machine run
// with a systematic fault cannot balloon the report or a checkpoint. Bundles
// are carried framed (flight.DecodeBundle reads each Incident.Bundle
// verbatim), so a report or checkpoint is a self-contained forensic artifact.
package fleet

import "plugvolt/internal/flight"

// maxRecordedIncidents bounds how many incident bundles a fleet report (and
// a stream checkpoint) retains verbatim. Counts — per row, per model, and in
// the aggregate — always cover every capture; only the framed bundles are
// capped. Collection is in machine index order, so which incidents survive
// the cap is a pure function of the experiment, never of the execution split.
const maxRecordedIncidents = 32

// Incident is one captured flight-recorder bundle in fleet report form: the
// summary fields a rollup needs, plus the framed bundle blob itself
// (base64 in JSON; decode with flight.DecodeBundle or feed a file of
// concatenated blobs to plugvolt-incidents).
type Incident struct {
	Machine   int    `json:"machine"`
	Model     string `json:"model"`
	Seq       int    `json:"seq"`
	Cause     string `json:"cause"`
	Core      int    `json:"core"`
	TriggerPS int64  `json:"trigger_ps"`
	Records   int    `json:"records"`
	Detail    string `json:"detail,omitempty"`
	Bundle    []byte `json:"bundle,omitempty"`
}

// incidentFor converts one sealed bundle into its fleet report form. An
// encode failure (structurally impossible for recorder-produced bundles)
// degrades to a summary-only incident rather than failing the machine.
func incidentFor(machine int, model string, b *flight.Bundle) Incident {
	inc := Incident{
		Machine:   machine,
		Model:     model,
		Seq:       b.Seq,
		Cause:     string(b.Cause),
		Core:      b.Core,
		TriggerPS: int64(b.TriggerPS),
		Records:   len(b.Records),
		Detail:    b.Detail,
	}
	if enc, err := b.Encode(); err == nil {
		inc.Bundle = enc
	}
	return inc
}

// collectIncidents seals the recorder and returns every captured bundle in
// fleet form, in capture (seq) order. nil recorder means flight recording is
// disabled for this run.
func collectIncidents(machine int, model string, rec *flight.Recorder) []Incident {
	if rec == nil {
		return nil
	}
	rec.Seal()
	bundles := rec.Bundles()
	if len(bundles) == 0 {
		return nil
	}
	out := make([]Incident, 0, len(bundles))
	for _, b := range bundles {
		out = append(out, incidentFor(machine, model, b))
	}
	return out
}

// appendIncidents folds one machine's incidents into a capped collection,
// honouring maxRecordedIncidents. RunStream folds in machine index order,
// so the retained prefix is identical across worker counts and batch sizes.
func appendIncidents(dst []Incident, incs []Incident) []Incident {
	for i := range incs {
		if len(dst) >= maxRecordedIncidents {
			break
		}
		dst = append(dst, incs[i])
	}
	return dst
}
