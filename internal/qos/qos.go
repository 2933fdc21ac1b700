// Package qos implements the QoS-constrained candidate host computation of
// the paper's Section III-A. The QoS measure is latency proxied by routing
// hop count: d(C, h) is the worst-case distance from host h to the clients
// C, and the relative distance
//
//	d̄(C, h) = (d(C, h) − d_min(C)) / (d_max(C) − d_min(C))         (eq. 3)
//
// normalizes the degradation against the best and worst possible hosts.
// The candidate set H(α) = {h : d̄(C, h) ≤ α} is nonempty for any α ≥ 0.
//
// d(C, h) comes, for every client set at once, from one bit-parallel
// breadth-first sweep on a hop-count graph (graph.MaxHops), and from one
// routed shortest-path tree per client on a weighted graph (NewProfiles).
package qos

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Profile holds the per-host worst-case distances for one client set,
// along with the extremes d_min and d_max over all possible hosts.
type Profile struct {
	// Dist[h] = d(C, h): worst-case distance from host h to any client.
	Dist []float64
	// DMin and DMax are min_h Dist[h] and max_h Dist[h].
	DMin, DMax float64
}

// NewProfile computes the distance profile for a client set over every
// possible host in the routed graph. It returns an error when a client is
// unreachable from some host (the graph should be connected) or when no
// clients are given. It is NewProfiles for one set.
func NewProfile(r *routing.Router, clients []graph.NodeID) (*Profile, error) {
	ps, err := NewProfiles(r, [][]graph.NodeID{clients})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// NewProfiles computes the distance profile of every client set in
// clientSets, indexed like it. It returns an error when a set is empty,
// or when some host cannot reach every client of a set. Some host misses
// a client of a nonempty set exactly when the graph is disconnected, so
// then every set fails, and the error names the first set's first such
// host.
//
// Dist[h] = max_c d(c, h) is the same on either path the graph's weights
// choose. On a hop-count graph all the sets share one bit-parallel sweep
// (graph.MaxHops), which routes and keeps no tree: the router then holds
// trees only for the hosts placement reads paths from. On a weighted
// graph the value is folded from one router tree per client, which the
// router keeps; distances on an undirected graph are symmetric, so a
// client-rooted tree gives d(c, h) up to float summation order, which the
// CandidateHosts boundary tolerance absorbs.
func NewProfiles(r *routing.Router, clientSets [][]graph.NodeID) ([]*Profile, error) {
	for i, clients := range clientSets {
		if len(clients) == 0 {
			return nil, fmt.Errorf("qos: client set %d has no clients", i)
		}
	}
	dists := make([][]float64, len(clientSets))
	if g := r.Graph(); g.Weighted() {
		for i, clients := range clientSets {
			dists[i] = treeFold(r, clients)
		}
	} else {
		for i, hops := range g.MaxHops(clientSets) {
			dists[i] = make([]float64, len(hops))
			for h, d := range hops {
				dists[i][h] = float64(d)
			}
		}
	}
	profiles := make([]*Profile, len(dists))
	for i, dist := range dists {
		p, err := newProfile(dist)
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	return profiles, nil
}

// treeFold returns max_c d(c, h) at every host h, from the router's tree
// of each client, or −1 at a host that misses some client.
func treeFold(r *routing.Router, clients []graph.NodeID) []float64 {
	dist := make([]float64, r.NumNodes())
	for _, c := range clients {
		t := r.Tree(c)
		for h := range dist {
			switch d := t.Dist(h); {
			case dist[h] < 0 || d < 0:
				dist[h] = -1 // some client cannot reach h
			case d > dist[h]:
				dist[h] = d
			}
		}
	}
	return dist
}

// newProfile is the profile of the per-host distances dist, or an error
// naming the first host that misses a client (dist −1).
func newProfile(dist []float64) (*Profile, error) {
	for h, d := range dist {
		if d < 0 {
			return nil, fmt.Errorf("qos: host %d cannot reach every client", h)
		}
	}
	p := &Profile{Dist: dist, DMin: dist[0], DMax: dist[0]}
	for _, d := range dist[1:] {
		if d < p.DMin {
			p.DMin = d
		}
		if d > p.DMax {
			p.DMax = d
		}
	}
	return p, nil
}

// RelativeDistance returns d̄(C, h) per eq. (3), in [0, 1]. When every
// host is equidistant (d_max = d_min) the degradation is defined as 0.
func (p *Profile) RelativeDistance(h graph.NodeID) float64 {
	if p.DMax == p.DMin {
		return 0
	}
	return (p.Dist[h] - p.DMin) / (p.DMax - p.DMin)
}

// CandidateHosts returns H(α) = {h : d̄(C, h) ≤ α} in ascending node
// order. For α ≥ 0 the set contains at least the d_min-achieving hosts;
// negative α is clamped to 0 so the result is never empty.
func (p *Profile) CandidateHosts(alpha float64) []graph.NodeID {
	if alpha < 0 {
		alpha = 0
	}
	var hosts []graph.NodeID
	for h := range p.Dist {
		// Tolerate floating rounding at the boundary.
		if p.RelativeDistance(h) <= alpha+1e-12 {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// BestHost returns the host minimizing the worst-case client distance,
// breaking ties toward the smallest node ID. This is the paper's "best
// QoS" placement for a single service (Section VI baseline).
func (p *Profile) BestHost() graph.NodeID {
	best := 0
	for h := 1; h < len(p.Dist); h++ {
		if p.Dist[h] < p.Dist[best] {
			best = h
		}
	}
	return best
}
