package placemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// PlacementFile is the JSON document Save/LoadPlacement exchange: enough
// context to re-evaluate, observe, and localize against the placement
// later (or on another machine).
type PlacementFile struct {
	// Topology names a built-in topology; empty for custom networks
	// (whose graphs travel separately via Network export).
	Topology string `json:"topology,omitempty"`
	// Alpha is the QoS slack the placement was computed under.
	Alpha float64 `json:"alpha"`
	// Services are the service definitions.
	Services []ServiceRecord `json:"services"`
	// Hosts[s] is the host of service s (-1 = unplaced).
	Hosts []int `json:"hosts"`
}

// ServiceRecord is the serialized form of Service.
type ServiceRecord struct {
	Name    string `json:"name,omitempty"`
	Clients []int  `json:"clients"`
}

// SavePlacement writes a placement document as indented JSON.
func SavePlacement(w io.Writer, doc PlacementFile) error {
	if len(doc.Hosts) != len(doc.Services) {
		return fmt.Errorf("placemon: %d hosts for %d services", len(doc.Hosts), len(doc.Services))
	}
	for i, s := range doc.Services {
		if len(s.Clients) == 0 {
			return fmt.Errorf("placemon: service %d has no clients", i)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("placemon: encode placement: %w", err)
	}
	return nil
}

// LoadPlacement reads a placement document written by SavePlacement.
// Beyond decoding, it rejects structurally invalid documents — a slack
// outside [0, 1] (or NaN), host IDs below -1, negative client IDs, and
// host/service count mismatches — so a hand-edited or corrupted file
// fails here with a clear message instead of deep inside an engine.
// Bounds that depend on a concrete network (node-ID ranges) are checked
// separately by PlacementFile.Validate.
func LoadPlacement(r io.Reader) (PlacementFile, error) {
	var doc PlacementFile
	if err := decodeStrict(r, &doc); err != nil {
		return doc, fmt.Errorf("placemon: decode placement: %w", err)
	}
	if len(doc.Hosts) != len(doc.Services) {
		return doc, fmt.Errorf("placemon: %d hosts for %d services", len(doc.Hosts), len(doc.Services))
	}
	if math.IsNaN(doc.Alpha) || doc.Alpha < 0 || doc.Alpha > 1 {
		return doc, fmt.Errorf("placemon: alpha %v outside [0, 1]", doc.Alpha)
	}
	for s, h := range doc.Hosts {
		if h < -1 {
			return doc, fmt.Errorf("placemon: service %d has invalid host %d (want ≥ -1)", s, h)
		}
	}
	for i, s := range doc.Services {
		if len(s.Clients) == 0 {
			return doc, fmt.Errorf("placemon: service %d has no clients", i)
		}
		for j, c := range s.Clients {
			if c < 0 {
				return doc, fmt.Errorf("placemon: service %d client %d is negative (%d)", i, j, c)
			}
		}
	}
	return doc, nil
}

// decodeStrict decodes exactly one JSON value from r into v: unknown
// fields are errors, and so is anything but white space after the value.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// Validate checks the document against a concrete network: every host
// and client ID must name a node of nw (hosts may also be -1, unplaced).
// LoadPlacement already enforces the network-independent invariants;
// callers that apply a document to a network (NewServer, `placemon
// localize -placement`) run this too, so an ID from a different topology
// is caught before any paths are built.
func (f PlacementFile) Validate(nw *Network) error {
	if nw == nil {
		return fmt.Errorf("placemon: Validate: nil network")
	}
	n := nw.NumNodes()
	for s, h := range f.Hosts {
		if h != -1 && (h < 0 || h >= n) {
			return fmt.Errorf("placemon: service %d host %d outside the network's %d nodes", s, h, n)
		}
	}
	for i, svc := range f.Services {
		for _, c := range svc.Clients {
			if c < 0 || c >= n {
				return fmt.Errorf("placemon: service %d client %d outside the network's %d nodes", i, c, n)
			}
		}
	}
	return nil
}

// ToServices converts the records back to Service values.
func (f PlacementFile) ToServices() []Service {
	out := make([]Service, len(f.Services))
	for i, s := range f.Services {
		out[i] = Service{Name: s.Name, Clients: append([]int(nil), s.Clients...)}
	}
	return out
}

// NewPlacementFile assembles a document from a placement run.
func NewPlacementFile(topologyName string, alpha float64, services []Service, hosts []int) PlacementFile {
	doc := PlacementFile{
		Topology: topologyName,
		Alpha:    alpha,
		Hosts:    append([]int(nil), hosts...),
	}
	for _, s := range services {
		doc.Services = append(doc.Services, ServiceRecord{
			Name:    s.Name,
			Clients: append([]int(nil), s.Clients...),
		})
	}
	return doc
}
