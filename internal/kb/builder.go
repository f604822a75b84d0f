package kb

import "fmt"

// Builder accumulates nodes and edges and produces an immutable Graph.
// It is not safe for concurrent use.
type Builder struct {
	kinds  []NodeKind
	titles []string
	byName map[string]NodeID

	links      []edge // article → article
	membership []edge // article → category
	contain    []edge // child category → parent category
}

// NewBuilder returns an empty Builder with capacity hints for the
// expected number of nodes.
func NewBuilder(nodeHint int) *Builder {
	return &Builder{
		kinds:  make([]NodeKind, 0, nodeHint),
		titles: make([]string, 0, nodeHint),
		byName: make(map[string]NodeID, nodeHint),
	}
}

// AddArticle registers an article with the given canonical title,
// returning its NodeID. Adding a title twice returns the existing node;
// adding a title already used by a category is an error.
func (b *Builder) AddArticle(title string) (NodeID, error) {
	return b.addNode(title, KindArticle)
}

// AddCategory registers a category node with the given canonical title.
func (b *Builder) AddCategory(title string) (NodeID, error) {
	return b.addNode(title, KindCategory)
}

func (b *Builder) addNode(title string, kind NodeKind) (NodeID, error) {
	if title == "" {
		return Invalid, fmt.Errorf("kb: empty node title")
	}
	if id, ok := b.byName[title]; ok {
		if b.kinds[id] != kind {
			return Invalid, fmt.Errorf("kb: node %q already exists as %s", title, b.kinds[id])
		}
		return id, nil
	}
	id := NodeID(len(b.kinds))
	b.kinds = append(b.kinds, kind)
	b.titles = append(b.titles, title)
	b.byName[title] = id
	return id, nil
}

// kindOf validates that id exists and returns its kind.
func (b *Builder) kindOf(id NodeID) (NodeKind, error) {
	if id < 0 || int(id) >= len(b.kinds) {
		return 0, fmt.Errorf("kb: node %d out of range [0,%d)", id, len(b.kinds))
	}
	return b.kinds[id], nil
}

// AddLink records a directed hyperlink between two articles.
func (b *Builder) AddLink(from, to NodeID) error {
	if err := b.expectKind(from, KindArticle, "link source"); err != nil {
		return err
	}
	if err := b.expectKind(to, KindArticle, "link target"); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("kb: self link on article %q", b.titles[from])
	}
	b.links = append(b.links, edge{from, to})
	return nil
}

// AddMembership records that article a belongs to category c.
func (b *Builder) AddMembership(a, c NodeID) error {
	if err := b.expectKind(a, KindArticle, "membership article"); err != nil {
		return err
	}
	if err := b.expectKind(c, KindCategory, "membership category"); err != nil {
		return err
	}
	b.membership = append(b.membership, edge{a, c})
	return nil
}

// AddContainment records that category parent contains category child.
func (b *Builder) AddContainment(parent, child NodeID) error {
	if err := b.expectKind(parent, KindCategory, "containment parent"); err != nil {
		return err
	}
	if err := b.expectKind(child, KindCategory, "containment child"); err != nil {
		return err
	}
	if parent == child {
		return fmt.Errorf("kb: self containment on category %q", b.titles[parent])
	}
	b.contain = append(b.contain, edge{child, parent})
	return nil
}

func (b *Builder) expectKind(id NodeID, want NodeKind, role string) error {
	got, err := b.kindOf(id)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("kb: %s %q is a %s, want %s", role, b.titles[id], got, want)
	}
	return nil
}

// Build finalises the graph. The Builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.kinds)
	g := &Graph{
		kinds:  b.kinds,
		titles: b.titles,
		byName: b.byName,
	}
	for _, k := range b.kinds {
		if k == KindArticle {
			g.numArticles++
		} else {
			g.numCategories++
		}
	}
	g.linkOut = buildCSR(n, b.links)
	g.linkIn = g.linkOut.transpose(n)
	g.memberOf = buildCSR(n, b.membership)
	g.members = g.memberOf.transpose(n)
	g.parents = buildCSR(n, b.contain)
	g.children = g.parents.transpose(n)
	b.links, b.membership, b.contain = nil, nil, nil
	return g
}
