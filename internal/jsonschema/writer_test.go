package jsonschema

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// fragments are the pieces random strings are built from: plain text,
// the characters encoding/json escapes (quotes, backslash, HTML
// characters, C0 controls, U+2028, U+2029), DEL, non-ASCII runes,
// U+FFFD itself and bytes that are not UTF-8.
var fragments = []string{"a", "Zz", " ", "/", "<", ">", "&", `"`, `\`,
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "é", "\U0001F600", "\ufffd", "\xff", "\xe2\x82", "\xed\xa0\x80"}

// treeGen builds random Node trees whose strings are built from frags;
// the fuzz target adds its own strings to them.
type treeGen struct {
	r     *rand.Rand
	frags []string
}

func (g *treeGen) str() string {
	var b []byte
	for n := g.r.Intn(5); n > 0; n-- {
		b = append(b, g.frags[g.r.Intn(len(g.frags))]...)
	}
	return string(b)
}

// maybeStr is empty half of the time, so omitempty is exercised.
func (g *treeGen) maybeStr() string {
	if g.r.Intn(2) == 0 {
		return ""
	}
	return g.str()
}

// strs returns nil, an empty slice or a few strings.
func (g *treeGen) strs() []string {
	switch g.r.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.r.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

// nodes returns nil, an empty map or a few entries, some of them nil.
func (g *treeGen) nodes(depth int) map[string]*Node {
	switch g.r.Intn(3) {
	case 0:
		return nil
	case 1:
		return map[string]*Node{}
	}
	m := map[string]*Node{}
	for n := 1 + g.r.Intn(4); n > 0; n-- {
		m[g.str()] = g.node(depth + 1)
	}
	return m
}

// node returns a random tree below depth 4, nil now and then.
func (g *treeGen) node(depth int) *Node {
	if depth > 0 && g.r.Intn(8) == 0 {
		return nil
	}
	n := &Node{
		Schema: g.maybeStr(), ID: g.maybeStr(), Title: g.maybeStr(),
		Description: g.maybeStr(), Ref: g.maybeStr(), Type: g.maybeStr(),
		Format: g.maybeStr(), ContentEncoding: g.maybeStr(),
		Enum: g.strs(), Required: g.strs(),
	}
	if g.r.Intn(3) > 0 {
		b := g.r.Intn(2) == 0
		n.AdditionalProperties = &b
	}
	if g.r.Intn(2) == 0 {
		n.MinItems = g.r.Intn(200) - 50
	}
	if depth < 4 {
		n.Properties = g.nodes(depth)
		n.Defs = g.nodes(depth)
		if g.r.Intn(2) == 0 {
			n.Items = g.node(depth + 1)
		}
	}
	return n
}

// checkOracle requires the writer's bytes to equal
// json.MarshalIndent's.
func checkOracle(t *testing.T, n *Node) {
	t.Helper()
	want, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := appendNode(nil, n); !bytes.Equal(got, want) {
		t.Fatalf("writer differs from json.MarshalIndent:\ngot  %q\nwant %q", got, want)
	}
}

// TestWriterMatchesMarshalIndent compares the writer with
// encoding/json, the oracle, on 3,000 random trees.
func TestWriterMatchesMarshalIndent(t *testing.T) {
	g := &treeGen{r: rand.New(rand.NewSource(1)), frags: fragments}
	checkOracle(t, nil)
	checkOracle(t, &Node{})
	deep := &Node{Type: "string"}
	for i := 0; i < 40; i++ {
		deep = &Node{Type: "array", Items: deep}
	}
	checkOracle(t, deep)
	for i := 0; i < 3000; i++ {
		checkOracle(t, g.node(0))
	}
}

// FuzzJSONSchemaWriter compares the writer with json.MarshalIndent on
// trees shaped by seed whose strings are built from the fragment
// alphabet plus the fuzzed strings.
func FuzzJSONSchemaWriter(f *testing.F) {
	f.Add(int64(1), "plain", "")
	f.Add(int64(2), "<a href=\"x\">&amp;</a>", "\u2028\u2029")
	f.Add(int64(3), "\x00\x1f\x7f\b\f", "\xff\xfe\xe2\x82")
	f.Fuzz(func(t *testing.T, seed int64, a, b string) {
		frags := append(append([]string(nil), fragments...), a, b)
		g := &treeGen{r: rand.New(rand.NewSource(seed)), frags: frags}
		checkOracle(t, g.node(0))
	})
}
