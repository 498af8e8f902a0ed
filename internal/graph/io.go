package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list: a header line
// "# nodes N edges M" followed by one "u v" pair per arc. The format
// round-trips through ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var writeErr error
	g.Edges(func(u, v int32, _ int64) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines starting
// with '#' other than the header are treated as comments; the header is
// optional but, when present, fixes the node count (isolated trailing nodes
// would otherwise be lost).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var n int32 = -1
	var srcs, dsts []int32
	maxID := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn int32
			var he int64
			if _, err := fmt.Sscanf(line, "# nodes %d edges %d", &hn, &he); err == nil {
				n = hn
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected 'u v', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		srcs = append(srcs, int32(u))
		dsts = append(dsts, int32(v))
		if int32(u) > maxID {
			maxID = int32(u)
		}
		if int32(v) > maxID {
			maxID = int32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxID + 1
	}
	if maxID >= n {
		return nil, fmt.Errorf("graph: node id %d exceeds declared node count %d", maxID, n)
	}
	return FromEdges(n, srcs, dsts), nil
}
