package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"spooftrack/internal/bgp"
)

// Export is a point-in-time snapshot of the ledger in sequence order. It is the unit Replay and Explain operate on and the
// payload the /explain endpoint and the JSON/DOT writers serialize.
type Export struct {
	Events []Event `json:"events"`
}

// Export snapshots the ledger. A nil ledger exports an empty timeline.
func (l *Ledger) Export() *Export {
	if l == nil {
		return &Export{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Export{Events: slices.Clone(l.events)}
}

// WriteJSON writes the timeline as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// maxExportBytes bounds what ParseExport reads, as shard's RPC decoder is
// bounded. The ddos-localization example's ledger (a 378-configuration
// campaign and a stream run over 1 000 sources, every catchment row
// recorded by both) writes 10.3 MB.
const maxExportBytes = 64 << 20

// ParseExport reads a timeline previously written by WriteJSON. It reads
// at most maxExportBytes, one event at a time, and rejects an event whose
// kind does not match its one payload before it reads the next, so an
// input of empty events cannot decode into many times its size. Replay
// checks the rest against the export's meta.
func ParseExport(r io.Reader) (*Export, error) {
	lr := &io.LimitedReader{R: r, N: maxExportBytes + 1}
	e, err := decodeExport(json.NewDecoder(lr))
	if err != nil {
		if lr.N == 0 {
			return nil, fmt.Errorf("provenance: export exceeds %d bytes", maxExportBytes)
		}
		return nil, fmt.Errorf("provenance: parse export: %w", err)
	}
	return e, nil
}

// decodeExport decodes WriteJSON's {"events": [...]} from dec event by
// event. Other keys are skipped, and "events": null is an empty export.
func decodeExport(dec *json.Decoder) (*Export, error) {
	e := &Export{}
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if key != "events" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, err
			}
			continue
		}
		e.Events = nil
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			continue
		}
		if tok != json.Delim('[') {
			return nil, fmt.Errorf("events: want an array, got %v", tok)
		}
		for dec.More() {
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				return nil, err
			}
			if k, ok := ev.payloadKind(); !ok || k != ev.Kind {
				return nil, fmt.Errorf("event %d (seq %d) of kind %q does not carry exactly one %q payload",
					len(e.Events), ev.Seq, ev.Kind, ev.Kind)
			}
			e.Events = append(e.Events, ev)
		}
		if err := expectDelim(dec, ']'); err != nil {
			return nil, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return nil, err
	}
	return e, nil
}

// expectDelim reads the next token and errors unless it is d.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != d {
		return fmt.Errorf("want %v, got %v", d, tok)
	}
	return nil
}

// payloadKind returns the kind of the event's payload, and false unless
// exactly one payload is set.
func (ev *Event) payloadKind() (Kind, bool) {
	set := [...]struct {
		ok   bool
		kind Kind
	}{
		{ev.Meta != nil, KindMeta},
		{ev.Deploy != nil, KindDeploy},
		{ev.Retry != nil, KindRetry},
		{ev.Degrade != nil, KindDegrade},
		{ev.Row != nil, KindRow},
		{ev.Quarantine != nil, KindQuarantine},
		{ev.Probe != nil, KindProbe},
		{ev.Round != nil, KindRound},
		{ev.Reconfig != nil, KindReconfig},
		{ev.Verdict != nil, KindVerdict},
		{ev.Membership != nil, KindMembership},
		{ev.Failover != nil, KindFailover},
	}
	var kind Kind
	n := 0
	for _, s := range set {
		if s.ok {
			kind = s.kind
			n++
		}
	}
	return kind, n == 1
}

// meta returns the stream meta event if present, else the first meta.
func (e *Export) meta() *MetaEvent {
	var first *MetaEvent
	for i := range e.Events {
		if m := e.Events[i].Meta; m != nil {
			if m.Component == "stream" {
				return m
			}
			if first == nil {
				first = m
			}
		}
	}
	return first
}

// finalVerdict returns the last verdict event, or nil.
func (e *Export) finalVerdict() *VerdictEvent {
	for i := len(e.Events) - 1; i >= 0; i-- {
		if v := e.Events[i].Verdict; v != nil {
			return v
		}
	}
	return nil
}

// WriteDOT renders the provenance graph in Graphviz DOT form: evidence
// leaves (configurations with their deploy/retry/degrade history and
// catchment rows, probe verdicts, quarantine transitions) feed round
// nodes, rounds chain into the evolving cluster state, and the final
// verdict node closes the chain. Node order follows the event timeline,
// so output is deterministic for a given ledger.
func (e *Export) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontsize=10];\n")

	// Evidence leaves: one node per configuration seen in a deploy or
	// row event, annotated with attempts / retries / degradation.
	attempts := map[int]int{}
	retries := map[int]int{}
	degraded := map[int]string{}
	rows := map[int]*RowEvent{}
	var cfgOrder []int
	seenCfg := map[int]bool{}
	note := func(cfg int) {
		if !seenCfg[cfg] {
			seenCfg[cfg] = true
			cfgOrder = append(cfgOrder, cfg)
		}
	}
	for i := range e.Events {
		switch ev := &e.Events[i]; {
		case ev.Deploy != nil:
			note(ev.Deploy.Config)
			attempts[ev.Deploy.Config] = ev.Deploy.Attempts
		case ev.Retry != nil:
			note(ev.Retry.Config)
			retries[ev.Retry.Config]++
		case ev.Degrade != nil:
			note(ev.Degrade.Config)
			degraded[ev.Degrade.Config] = ev.Degrade.Phase
		case ev.Row != nil:
			note(ev.Row.Config)
			rows[ev.Row.Config] = ev.Row
		}
	}
	for _, cfg := range cfgOrder {
		label := fmt.Sprintf("config %d", cfg)
		if a := attempts[cfg]; a > 1 {
			label += fmt.Sprintf("\\n%d attempts", a)
		}
		if r := retries[cfg]; r > 0 {
			label += fmt.Sprintf("\\n%d retries", r)
		}
		if ph, ok := degraded[cfg]; ok {
			label += fmt.Sprintf("\\ndegraded (%s)", ph)
		}
		if row, ok := rows[cfg]; ok && row.Incomplete {
			label += "\\nrow incomplete"
		}
		style := ""
		if _, ok := degraded[cfg]; ok {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  cfg%d [label=\"%s\"%s];\n", cfg, label, style)
	}

	// Quarantine and probe evidence.
	for i := range e.Events {
		if q := e.Events[i].Quarantine; q != nil {
			fmt.Fprintf(&b, "  quar%d [label=\"link %d\\n%s -> %s\", shape=octagon];\n",
				e.Events[i].Seq, q.Link, q.From, q.To)
		}
		if p := e.Events[i].Probe; p != nil {
			fmt.Fprintf(&b, "  probe%d [label=\"probe AS %d\\n%s (%.2f)\", shape=ellipse];\n",
				e.Events[i].Seq, p.AS, p.Signal, p.Confidence)
		}
	}

	// Rounds chain through intermediate cluster states to the verdict.
	prevState := ""
	for i := range e.Events {
		ev := &e.Events[i]
		switch {
		case ev.Round != nil:
			r := ev.Round
			fmt.Fprintf(&b, "  round%d [label=\"round %d\\nconfig %d, %d pkts\"];\n",
				r.Round, r.Round, r.Config, r.Packets)
			fmt.Fprintf(&b, "  cfg%d -> round%d;\n", r.Config, r.Round)
			state := fmt.Sprintf("state%d", r.Round)
			fmt.Fprintf(&b, "  %s [label=\"%d clusters\\n%d candidates\", shape=oval];\n",
				state, r.Clusters, r.Candidates)
			fmt.Fprintf(&b, "  round%d -> %s;\n", r.Round, state)
			if prevState != "" {
				fmt.Fprintf(&b, "  %s -> round%d [style=dotted];\n", prevState, r.Round)
			}
			prevState = state
		case ev.Reconfig != nil:
			rc := ev.Reconfig
			fmt.Fprintf(&b, "  %s -> cfg%d [label=\"%s\", style=dashed];\n",
				orDefault(prevState, "start"), rc.Chosen, rc.Reason)
		}
	}

	if v := e.finalVerdict(); v != nil {
		fmt.Fprintf(&b, "  verdict [label=\"verdict (%s)\\n%d clusters, converged=%v\", shape=doubleoctagon];\n",
			v.Origin, v.Clusters, v.Converged)
		if prevState != "" {
			fmt.Fprintf(&b, "  %s -> verdict;\n", prevState)
		} else {
			for _, cfg := range cfgOrder {
				fmt.Fprintf(&b, "  cfg%d -> verdict;\n", cfg)
			}
		}
		for i := range e.Events {
			if p := e.Events[i].Probe; p != nil {
				fmt.Fprintf(&b, "  probe%d -> verdict [style=dotted];\n", e.Events[i].Seq)
			}
			if e.Events[i].Quarantine != nil {
				fmt.Fprintf(&b, "  quar%d -> verdict [style=dotted];\n", e.Events[i].Seq)
			}
		}
	}

	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// rowsByConfig collects the latest catchment row per configuration.
func (e *Export) rowsByConfig() map[int][]bgp.LinkID {
	rows := map[int][]bgp.LinkID{}
	for i := range e.Events {
		if r := e.Events[i].Row; r != nil {
			rows[r.Config] = r.Catchment
		}
	}
	return rows
}
