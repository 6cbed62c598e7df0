package sim

import "strconv"

// Name is a lock's or a proc's name. One made by IndexedName holds a
// prefix and an index and formats them the first time the name is read: by
// a probe event, a park, a deadlock report or a panic. A host names a lock
// for each of its devices at boot and a proc for each pod start, and a run
// without a probe reads few of those names.
type Name struct {
	s      string                   // the name, or its prefix while format is set
	idx    int                      // rendered by format
	format func([]byte, int) []byte // appends idx's rendering; nil once formatted
}

// IndexedName returns the name prefix followed by format's rendering of idx.
func IndexedName(prefix string, idx int, format func([]byte, int) []byte) Name {
	return Name{s: prefix, idx: idx, format: format}
}

// DecimalName returns the name prefix followed by idx in decimal.
func DecimalName(prefix string, idx int) Name {
	return IndexedName(prefix, idx, appendDecimal)
}

func appendDecimal(b []byte, i int) []byte { return strconv.AppendInt(b, int64(i), 10) }

// String formats the name on first call and returns the cached string.
func (n *Name) String() string {
	if n.format != nil {
		n.s = string(n.format([]byte(n.s), n.idx))
		n.format = nil
	}
	return n.s
}
