package ddg

import (
	"fmt"
	"strings"
	"testing"
)

// chainText renders an n-node chain in the textual format: every node
// writes an int consumed by its successor, and the last value is an exit
// value.
func chainText(n int) string {
	var b strings.Builder
	b.WriteString("ddg \"chain\" machine=superscalar\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node n%d op=add lat=1 writes=int\n", i)
	}
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "edge n%d n%d flow int\n", i-1, i)
	}
	return b.String()
}

// BenchmarkParseFinalize measures the .ddg intake path — Parse then
// Finalize — on chains of growing length. Both steps are linear in the
// text, so ns/op should grow about 4× per 4× nodes.
func BenchmarkParseFinalize(b *testing.B) {
	for _, n := range []int{250, 1000, 4000} {
		text := chainText(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				g, err := ParseString(text)
				if err != nil {
					b.Fatal(err)
				}
				if err := g.Finalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
