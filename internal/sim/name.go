package sim

import "strconv"

// Name is a lock's, a primitive's or a proc's name. One made by IndexedName
// holds a prefix and an index and formats them the first time the name is
// read: by a probe event, a deadlock report, a panic or a trace export.
// Parking does not read it. A host names a lock for each of its devices at
// boot and a proc for each pod start, and a run without a probe reads few
// of those names.
type Name struct {
	s      string                   // the name, or its prefix while format is set
	idx    int32                    // rendered by format
	dec    int32                    // see Decimal: 1 + len(prefix) for a DecimalName, else 0
	format func([]byte, int) []byte // appends idx's rendering; nil once formatted
}

// IndexedName returns the name prefix followed by format's rendering of idx.
// An index beyond 32 bits is formatted at once.
func IndexedName(prefix string, idx int, format func([]byte, int) []byte) Name {
	if idx != int(int32(idx)) {
		return Name{s: string(format([]byte(prefix), idx))}
	}
	return Name{s: prefix, idx: int32(idx), format: format}
}

// DecimalName returns the name prefix followed by idx in decimal.
func DecimalName(prefix string, idx int) Name {
	n := IndexedName(prefix, idx, appendDecimal)
	if n.format != nil {
		n.dec = int32(len(prefix)) + 1
	}
	return n
}

func appendDecimal(b []byte, i int) []byte { return strconv.AppendInt(b, int64(i), 10) }

// String formats the name on first call and returns the cached string.
func (n *Name) String() string {
	if n.format != nil {
		n.s = string(n.format([]byte(n.s), int(n.idx)))
		n.format = nil
	}
	return n.s
}

// Decimal returns the prefix and index of a name made by DecimalName,
// whether or not it has been formatted, without formatting it. ok is false
// for any other name.
func (n *Name) Decimal() (prefix string, idx int, ok bool) {
	if n.dec == 0 {
		return "", 0, false
	}
	return n.s[:n.dec-1], int(n.idx), true
}

// text returns the name's string, or "" for no name (a sleep or an
// unnamed primitive).
func (n *Name) text() string {
	if n == nil {
		return ""
	}
	return n.String()
}
