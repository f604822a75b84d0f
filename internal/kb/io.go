package kb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary graph format:
//
//	magic "SQEKB\x01"
//	uvarint numNodes
//	per node: byte kind, uvarint len(title), title bytes
//	three relations (links, membership, containment), each:
//	    uvarint numRows, per row: uvarint degree, delta-uvarint targets
//
// Only forward relations are stored; reverse CSRs are rebuilt on load.

var magic = []byte("SQEKB\x01")

// Encode writes g to w in the binary graph format.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(g.kinds))); err != nil {
		return err
	}
	for i, k := range g.kinds {
		if err := bw.WriteByte(byte(k)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(g.titles[i]))); err != nil {
			return err
		}
		if _, err := bw.WriteString(g.titles[i]); err != nil {
			return err
		}
	}
	for _, rel := range []*csr{&g.linkOut, &g.memberOf, &g.parents} {
		if err := encodeCSR(writeUvarint, rel); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodeCSR(writeUvarint func(uint64) error, c *csr) error {
	rows := len(c.offsets) - 1
	if rows < 0 {
		rows = 0
	}
	if err := writeUvarint(uint64(rows)); err != nil {
		return err
	}
	for r := 0; r < rows; r++ {
		row := c.targets[c.offsets[r]:c.offsets[r+1]]
		if err := writeUvarint(uint64(len(row))); err != nil {
			return err
		}
		prev := NodeID(0)
		for i, t := range row {
			d := uint64(t)
			if i > 0 {
				d = uint64(t - prev) // rows are sorted ascending
			}
			if err := writeUvarint(d); err != nil {
				return err
			}
			prev = t
		}
	}
	return nil
}

// Decode reads a graph previously written by Encode.
func Decode(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("kb: reading magic: %w", err)
	}
	if string(head) != string(magic) {
		return nil, fmt.Errorf("kb: bad magic %q", head)
	}
	numNodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("kb: reading node count: %w", err)
	}
	const maxNodes, maxNodeHint = 1 << 28, 1 << 16
	if numNodes > maxNodes {
		return nil, fmt.Errorf("kb: node count %d exceeds limit %d", numNodes, maxNodes)
	}
	// The count is not yet backed by bytes read, so it only presizes up
	// to maxNodeHint: a short hostile input cannot claim gigabytes.
	b := NewBuilder(int(min(numNodes, maxNodeHint)))
	for i := uint64(0); i < numNodes; i++ {
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("kb: reading node %d kind: %w", i, err)
		}
		kind := NodeKind(kindByte)
		if kind != KindArticle && kind != KindCategory {
			return nil, fmt.Errorf("kb: node %d: invalid kind %d", i, kindByte)
		}
		tl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("kb: reading node %d title length: %w", i, err)
		}
		if tl > 1<<16 {
			return nil, fmt.Errorf("kb: node %d: title length %d too large", i, tl)
		}
		title := make([]byte, tl)
		if _, err := io.ReadFull(br, title); err != nil {
			return nil, fmt.Errorf("kb: reading node %d title: %w", i, err)
		}
		var id NodeID
		if kind == KindArticle {
			id, err = b.AddArticle(string(title))
		} else {
			id, err = b.AddCategory(string(title))
		}
		if err != nil {
			return nil, err
		}
		if id != NodeID(i) {
			return nil, fmt.Errorf("kb: duplicate title %q at node %d", title, i)
		}
	}
	adders := []func(from, to NodeID) error{
		b.AddLink,
		b.AddMembership,
		func(child, parent NodeID) error { return b.AddContainment(parent, child) },
	}
	for reli, add := range adders {
		rows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("kb: relation %d row count: %w", reli, err)
		}
		if rows > numNodes {
			return nil, fmt.Errorf("kb: relation %d: %d rows for %d nodes", reli, rows, numNodes)
		}
		for r := uint64(0); r < rows; r++ {
			deg, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("kb: relation %d row %d degree: %w", reli, r, err)
			}
			if deg > numNodes {
				return nil, fmt.Errorf("kb: relation %d row %d: degree %d too large", reli, r, deg)
			}
			prev := uint64(0)
			for i := uint64(0); i < deg; i++ {
				d, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("kb: relation %d row %d target: %w", reli, r, err)
				}
				t := d
				if i > 0 {
					t = prev + d
				}
				if t >= numNodes {
					return nil, fmt.Errorf("kb: relation %d row %d: target %d out of range", reli, r, t)
				}
				if err := add(NodeID(r), NodeID(t)); err != nil {
					return nil, err
				}
				prev = t
			}
		}
	}
	return b.Build(), nil
}
