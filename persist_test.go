package placemon

import (
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadPlacementRoundTrip(t *testing.T) {
	doc := NewPlacementFile("Abovenet", 0.5,
		[]Service{{Name: "svc", Clients: []int{1, 2}}, {Clients: []int{3}}},
		[]int{4, 5})
	var buf strings.Builder
	if err := SavePlacement(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlacement(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("round trip changed document:\n%+v\n%+v", got, doc)
	}
	services := got.ToServices()
	if len(services) != 2 || services[0].Name != "svc" || !reflect.DeepEqual(services[1].Clients, []int{3}) {
		t.Fatalf("ToServices = %+v", services)
	}
}

func TestSavePlacementValidation(t *testing.T) {
	var buf strings.Builder
	bad := PlacementFile{Services: []ServiceRecord{{Clients: []int{1}}}, Hosts: nil}
	if err := SavePlacement(&buf, bad); err == nil {
		t.Fatal("length mismatch should error")
	}
	bad = PlacementFile{Services: []ServiceRecord{{}}, Hosts: []int{1}}
	if err := SavePlacement(&buf, bad); err == nil {
		t.Fatal("clientless service should error")
	}
}

func TestLoadPlacementValidation(t *testing.T) {
	cases := []string{
		`not json`,
		`{"hosts":[1],"services":[]}`,
		`{"hosts":[1],"services":[{"clients":[]}]}`,
		`{"hosts":[1],"services":[{"clients":[1]}],"surprise":true}`,
		// Structural invariants a hand-edited file can break: slack
		// outside [0, 1], a host below the -1 "unplaced" sentinel, and a
		// negative client ID.
		`{"alpha":-0.1,"hosts":[1],"services":[{"clients":[1]}]}`,
		`{"alpha":1.5,"hosts":[1],"services":[{"clients":[1]}]}`,
		`{"alpha":0.5,"hosts":[-2],"services":[{"clients":[1]}]}`,
		`{"alpha":0.5,"hosts":[1],"services":[{"clients":[-3]}]}`,
		// Anything after the document but white space.
		`{"alpha":0.5,"hosts":[1],"services":[{"clients":[1]}]}]`,
		`{"alpha":0.5,"hosts":[1],"services":[{"clients":[1]}]} {}`,
	}
	for _, c := range cases {
		if _, err := LoadPlacement(strings.NewReader(c)); err == nil {
			t.Fatalf("LoadPlacement(%q) should fail", c)
		}
	}
	// An unplaced service (host -1) remains valid.
	ok := `{"alpha":0.5,"hosts":[-1],"services":[{"clients":[1]}]}`
	if _, err := LoadPlacement(strings.NewReader(ok)); err != nil {
		t.Fatalf("LoadPlacement(%q) = %v, want ok", ok, err)
	}
}

func TestPlacementFileValidate(t *testing.T) {
	nw := fig1Network(t)
	n := nw.NumNodes()
	good := PlacementFile{
		Alpha:    0.5,
		Services: []ServiceRecord{{Clients: []int{0, 1}}},
		Hosts:    []int{n - 1},
	}
	if err := good.Validate(nw); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	unplaced := good
	unplaced.Hosts = []int{-1}
	if err := unplaced.Validate(nw); err != nil {
		t.Fatalf("unplaced host rejected: %v", err)
	}

	badHost := good
	badHost.Hosts = []int{n}
	if err := badHost.Validate(nw); err == nil {
		t.Fatal("host beyond the network should error")
	}
	badClient := good
	badClient.Services = []ServiceRecord{{Clients: []int{n + 3}}}
	if err := badClient.Validate(nw); err == nil {
		t.Fatal("client beyond the network should error")
	}
	if err := good.Validate(nil); err == nil {
		t.Fatal("nil network should error")
	}
}

func TestNewServerRejectsOutOfNetworkPlacement(t *testing.T) {
	// The serving path runs Validate too, so a document from a larger
	// topology cannot reach path construction with foreign node IDs.
	nw := fig1Network(t)
	doc := PlacementFile{
		Alpha:    0.5,
		Services: []ServiceRecord{{Clients: []int{0}}},
		Hosts:    []int{nw.NumNodes() + 10},
	}
	if _, err := NewServer(nw, doc, ServerConfig{}); err == nil {
		t.Fatal("NewServer should reject a host outside the network")
	}
}

func TestPlacementFileEndToEnd(t *testing.T) {
	// Save a real placement, reload it, and re-evaluate to identical
	// metrics.
	nw := fig1Network(t)
	services := fig1Services(3)
	res, err := nw.Place(services, PlaceConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewPlacementFile("", 0.5, services, res.Hosts)
	var buf strings.Builder
	if err := SavePlacement(&buf, doc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlacement(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	again, err := nw.Evaluate(loaded.ToServices(), loaded.Hosts, loaded.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if again.Identifiable != res.Identifiable || again.Distinguishable != res.Distinguishable {
		t.Fatalf("reloaded metrics differ: %+v vs %+v", again, res)
	}
}
