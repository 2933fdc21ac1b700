package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The edge-list format accepted by Parse is one record per line:
//
//	# comment
//	nodes <count>            (optional; forces the universe size)
//	node <id> <label>        (optional; declares a labeled node)
//	edge <u> <v> [weight]    (undirected edge, default weight 1)
//
// or the bare two/three-column form "<u> <v> [weight]". Node IDs must be
// non-negative integers; the graph size is 1 + the largest ID seen.

// MaxParseNodes caps the node universe Parse will allocate; a sparse file
// mentioning a huge node ID would otherwise force allocation proportional
// to the ID rather than to the input size.
const MaxParseNodes = 1 << 20

// Parse reads a graph from the edge-list format described in the package
// documentation. Node IDs must be below MaxParseNodes.
func Parse(r io.Reader) (*Graph, error) {
	type rawEdge struct {
		u, v   int
		weight float64
	}
	var (
		edges  []rawEdge
		labels = map[int]string{}
		maxID  = -1
	)
	note := func(ids ...int) error {
		for _, id := range ids {
			if id >= MaxParseNodes {
				return fmt.Errorf("graph: node id %d exceeds limit %d", id, MaxParseNodes)
			}
			if id > maxID {
				maxID = id
			}
		}
		return nil
	}

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "nodes":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: nodes needs a count", lineNo)
			}
			count, err := strconv.Atoi(fields[1])
			if err != nil || count <= 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			if err := note(count - 1); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: node needs id and label", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node id %q", lineNo, fields[1])
			}
			labels[id] = strings.Join(fields[2:], " ")
			if err := note(id); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case "edge":
			fields = fields[1:]
			fallthrough
		default:
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("graph: line %d: want \"u v [weight]\"", lineNo)
			}
			u, err := strconv.Atoi(fields[0])
			if err != nil || u < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node id %q", lineNo, fields[0])
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node id %q", lineNo, fields[1])
			}
			w := 1.0
			if len(fields) == 3 {
				w, err = strconv.ParseFloat(fields[2], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
				}
			}
			edges = append(edges, rawEdge{u: u, v: v, weight: w})
			if err := note(u, v); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if maxID < 0 {
		return nil, ErrEmptyGraph
	}

	g := New(maxID + 1)
	for id, label := range labels {
		g.SetLabel(id, label)
	}
	for _, e := range edges {
		if err := g.AddWeightedEdge(e.u, e.v, e.weight); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Write serializes the graph in the format accepted by Parse. Node labels
// that differ from the default decimal ID are emitted as node records.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(bw, "nodes %d\n", g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		if l, ok := g.labels[v]; ok && l != strconv.Itoa(v) {
			fmt.Fprintf(bw, "node %d %s\n", v, l)
		}
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		if e.Weight == 1 {
			fmt.Fprintf(bw, "edge %d %d\n", e.U, e.V)
		} else {
			fmt.Fprintf(bw, "edge %d %d %g\n", e.U, e.V, e.Weight)
		}
	}
	return bw.Flush()
}

// DOT renders the graph in Graphviz format for debugging and documentation.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(&b, "  %d [label=%q];\n", v, g.Label(v))
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  %d -- %d;\n", e.U, e.V)
	}
	b.WriteString("}\n")
	return b.String()
}
