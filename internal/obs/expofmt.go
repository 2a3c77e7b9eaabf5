package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadText reads back an exposition that Registry.WriteText rendered. It
// returns each family's declared TYPE, and each sample's value under the
// series key it was written with (SeriesKey), so a caller looks a value
// up by the same name and labels it was registered under and no label
// syntax is parsed. The writer's format itself is pinned byte for byte by
// its golden test; this reader rejects only what would make a lookup
// wrong: a sample line without a numeric value, and a series written
// twice.
func ReadText(r io.Reader) (types map[string]string, values map[string]float64, err error) {
	types, values = make(map[string]string), make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, ok := strings.Cut(rest, " "); ok {
				types[name] = typ
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may hold spaces; the value after the key holds none.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, nil, fmt.Errorf("line %d: sample %q has no value", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: sample %q: %w", n, line, err)
		}
		key := line[:i]
		if _, dup := values[key]; dup {
			return nil, nil, fmt.Errorf("line %d: series %s written twice", n, key)
		}
		values[key] = v
	}
	return types, values, sc.Err()
}
