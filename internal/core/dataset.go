package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// The paper releases its measurement dataset (§VI) — per-configuration
// catchment assignments for every observed AS — so that others can study
// route manipulation without redeploying weeks of announcements. This
// file implements the equivalent: a campaign exports to a streamable
// JSON-lines dataset and can be re-analyzed (clustering, scheduling,
// spoofed-traffic studies) from the file alone.
//
// Format: the first line is a header object; every following line is
// one configuration record. Catchments are stored per source in header
// order, -1 meaning unobserved.

// DatasetHeader is the first line of a dataset file.
type DatasetHeader struct {
	// Version identifies the format.
	Version int `json:"version"`
	// Muxes are the peering link names, indexed by LinkID.
	Muxes []string `json:"muxes"`
	// SourceASNs lists the analyzed sources.
	SourceASNs []topo.ASN `json:"source_asns"`
}

// DatasetConfig is one configuration record.
type DatasetConfig struct {
	// Phase is the generating technique ("locations", "prepending",
	// "poisoning").
	Phase string `json:"phase"`
	// Announcements describe ⟨A; P; Q⟩.
	Announcements []DatasetAnn `json:"announcements"`
	// Catchments holds, per source (header order), the link id or -1.
	Catchments []int8 `json:"catchments"`
}

// DatasetAnn is one announcement within a configuration.
type DatasetAnn struct {
	Link    int        `json:"link"`
	Prepend int        `json:"prepend,omitempty"`
	Poison  []topo.ASN `json:"poison,omitempty"`
}

// Dataset is a fully parsed dataset.
type Dataset struct {
	Header  DatasetHeader
	Configs []DatasetConfig
}

// datasetVersion is the current format version.
const datasetVersion = 1

// Dataset exports the campaign's catchment matrix.
func (c *Campaign) Dataset() *Dataset {
	d := &Dataset{Header: DatasetHeader{Version: datasetVersion}}
	for _, m := range c.World.Platform.Muxes() {
		d.Header.Muxes = append(d.Header.Muxes, m.Spec.Name)
	}
	g := c.World.Graph
	for _, src := range c.Sources {
		d.Header.SourceASNs = append(d.Header.SourceASNs, g.ASN(src))
	}
	for i, pc := range c.Plan {
		rec := DatasetConfig{Phase: pc.Phase.String()}
		for _, a := range pc.Config.Anns {
			rec.Announcements = append(rec.Announcements, DatasetAnn{
				Link:    int(a.Link),
				Prepend: a.Prepend,
				Poison:  a.Poison,
			})
		}
		rec.Catchments = make([]int8, len(c.Sources))
		for k := range c.Sources {
			rec.Catchments[k] = int8(c.Catchments[i][k])
		}
		d.Configs = append(d.Configs, rec)
	}
	return d
}

// WriteDataset streams the dataset as JSON lines.
func WriteDataset(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(d.Header); err != nil {
		return fmt.Errorf("core: dataset header: %w", err)
	}
	for i := range d.Configs {
		if err := enc.Encode(&d.Configs[i]); err != nil {
			return fmt.Errorf("core: dataset config %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadDataset parses a dataset written by WriteDataset, validating
// structural consistency (catchment vector lengths, link ranges).
func ReadDataset(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	d := &Dataset{}
	if err := dec.Decode(&d.Header); err != nil {
		return nil, fmt.Errorf("core: dataset header: %w", err)
	}
	if d.Header.Version != datasetVersion {
		return nil, fmt.Errorf("core: unsupported dataset version %d", d.Header.Version)
	}
	if len(d.Header.Muxes) == 0 {
		return nil, fmt.Errorf("core: dataset has no muxes")
	}
	if len(d.Header.Muxes) > bgp.MaxLinks {
		return nil, fmt.Errorf("core: dataset has %d muxes, a link id holds at most %d", len(d.Header.Muxes), bgp.MaxLinks)
	}
	nSources := len(d.Header.SourceASNs)
	nLinks := len(d.Header.Muxes)
	for i := 0; ; i++ {
		var rec DatasetConfig
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: dataset config %d: %w", i, err)
		}
		if len(rec.Catchments) != nSources {
			return nil, fmt.Errorf("core: config %d has %d catchments for %d sources",
				i, len(rec.Catchments), nSources)
		}
		for _, l := range rec.Catchments {
			if l < -1 || int(l) >= nLinks {
				return nil, fmt.Errorf("core: config %d has out-of-range link %d", i, l)
			}
		}
		if len(rec.Announcements) == 0 {
			return nil, fmt.Errorf("core: config %d announces from no links", i)
		}
		for _, a := range rec.Announcements {
			if a.Link < 0 || a.Link >= nLinks {
				return nil, fmt.Errorf("core: config %d announces on unknown link %d", i, a.Link)
			}
		}
		d.Configs = append(d.Configs, rec)
	}
	return d, nil
}

// CatchmentMatrix converts the dataset to the [config][source] matrix
// that package cluster and package sched consume.
func (d *Dataset) CatchmentMatrix() [][]bgp.LinkID {
	out := make([][]bgp.LinkID, len(d.Configs))
	for i, rec := range d.Configs {
		row := make([]bgp.LinkID, len(rec.Catchments))
		for k, l := range rec.Catchments {
			row[k] = bgp.LinkID(l)
		}
		out[i] = row
	}
	return out
}
