// Package maporder exercises the maporder rule: map-range bodies that
// append to an outer slice or write output fire; the key-collection
// idiom, an append to a slice sorted after the loop, loop-local scratch,
// and commutative accumulation stay silent.
package maporder

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func Violations(m map[string]int, w io.Writer) []string {
	var out []string
	for k := range m {
		out = append(out, k+"!") // derived value: not the collection idiom
	}
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k)
	}
	out = append(out, sb.String())
	return out
}

func Clean(m map[string]int, w io.Writer) (int, error) {
	keys := make([]string, 0, len(m))
	for k := range m { // key-collection idiom: exempt
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s=%d\n", k, m[k]); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, v := range m { // commutative int accumulation: not flagged
		total += v
	}
	for k, v := range m {
		scratch := make([]int, 0, 2) // loop-local scratch: order-safe
		scratch = append(scratch, v, len(k))
		total += scratch[0]
	}
	return total, nil
}

func SortedAfterCollect(m map[string]int) []string {
	var rows []string
	for k, v := range m { // appended slice is sorted below: silent
		rows = append(rows, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(rows)
	return rows
}

func SortsTheWrongSlice(m map[string]int) ([]string, []string) {
	var rows, other []string
	for k, v := range m {
		rows = append(rows, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(other) // a different slice: rows keeps map order
	return rows, other
}
