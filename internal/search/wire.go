package search

import "fmt"

// WireNode is the JSON form of a query tree crossing the coordinator→
// shard RPC boundary. The tree is encoded structurally — terms are
// ALREADY analyzed when the tree is built, and the decoder must not
// re-analyze them (stemming is not idempotent), so the wire form
// carries the analyzed strings verbatim.
//
// One node kind per type tag:
//
//	{"t":"term","text":"motif"}
//	{"t":"phrase","terms":["queri","expans"]}
//	{"t":"uw","terms":["graph","base"],"width":4}
//	{"t":"weight","children":[{"w":0.8,"n":{…}}, …]}
//
// Weights are float64 and survive JSON bit-exactly (Go emits the
// shortest representation that round-trips), so a decoded tree
// flattens to the same normalised leaf weights as the original.
type WireNode struct {
	T        string      `json:"t"`
	Text     string      `json:"text,omitempty"`
	Terms    []string    `json:"terms,omitempty"`
	Width    int         `json:"width,omitempty"`
	Children []WireChild `json:"children,omitempty"`
}

// WireChild is one weighted child of a "weight" node.
type WireChild struct {
	W float64  `json:"w"`
	N WireNode `json:"n"`
}

// EncodeNode converts a query tree to its wire form.
func EncodeNode(n Node) (WireNode, error) {
	switch x := n.(type) {
	case Term:
		return WireNode{T: "term", Text: x.Text}, nil
	case Phrase:
		return WireNode{T: "phrase", Terms: x.Terms}, nil
	case Unordered:
		return WireNode{T: "uw", Terms: x.Terms, Width: x.Width}, nil
	case Weighted:
		wn := WireNode{T: "weight", Children: make([]WireChild, len(x.Children))}
		for i, c := range x.Children {
			cn, err := EncodeNode(c.Node)
			if err != nil {
				return WireNode{}, err
			}
			wn.Children[i] = WireChild{W: c.Weight, N: cn}
		}
		return wn, nil
	default:
		return WireNode{}, fmt.Errorf("search: cannot encode %T for the wire", n)
	}
}

// DecodeNode converts a wire node back into a query tree. It is the
// exact inverse of EncodeNode: no analysis, no normalisation — the tree
// the shard flattens is structurally identical to the tree the
// coordinator encoded.
func DecodeNode(wn WireNode) (Node, error) {
	switch wn.T {
	case "term":
		return Term{Text: wn.Text}, nil
	case "phrase":
		return Phrase{Terms: wn.Terms}, nil
	case "uw":
		return Unordered{Terms: wn.Terms, Width: wn.Width}, nil
	case "weight":
		w := Weighted{Children: make([]Child, len(wn.Children))}
		for i, c := range wn.Children {
			n, err := DecodeNode(c.N)
			if err != nil {
				return nil, err
			}
			w.Children[i] = Child{Weight: c.W, Node: n}
		}
		return w, nil
	default:
		return nil, fmt.Errorf("search: unknown wire node type %q", wn.T)
	}
}
