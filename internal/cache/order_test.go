package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mtf is the reference recency order: a move-to-front list of ways,
// most recent first.
type mtf []int

func (l mtf) touch(w int) {
	i := slices.Index(l, w)
	copy(l[1:i+1], l[:i])
	l[0] = w
}

// ranks lists an Order's ways most recent first.
func ranks(o Order, ways int) mtf {
	l := make(mtf, ways)
	for i := range l {
		l[i] = int(uint64(o) >> (4 * i) & 0xF)
	}
	return l
}

// isOrder is the decode oracle: word's low ways nibbles sort to
// 0..ways-1 and every nibble above them is zero.
func isOrder(word uint64, ways int) bool {
	var nibbles []int
	for i := 0; i < MaxWays; i++ {
		n := int(word >> (4 * i) & 0xF)
		if i >= ways {
			if n != 0 {
				return false
			}
			continue
		}
		nibbles = append(nibbles, n)
	}
	slices.Sort(nibbles)
	for i, n := range nibbles {
		if n != i {
			return false
		}
	}
	return true
}

// sameAsMTF fails unless o ranks the ways as the reference list does,
// names its last way as the LRU victim and decodes to itself.
func sameAsMTF(o Order, ref mtf) error {
	ways := len(ref)
	if got := ranks(o, ways); !slices.Equal(got, ref) {
		return fmt.Errorf("order %#x ranks %v, reference %v", uint64(o), got, ref)
	}
	if got := o.LRU(ways); got != ref[ways-1] {
		return fmt.Errorf("order %#x: LRU %d, reference %d", uint64(o), got, ref[ways-1])
	}
	if d, err := decodeOrder(uint64(o), ways); err != nil || d != o {
		return fmt.Errorf("order %#x decodes to %#x, %v", uint64(o), uint64(d), err)
	}
	return nil
}

// TestOrderAgainstMoveToFront drives an Order and a move-to-front list
// with the same seeded touch stream at every associativity up to
// MaxWays, comparing the full ranking, the victim and the decode after
// every touch.
func TestOrderAgainstMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= MaxWays; ways++ {
		o, ref := NewOrders(1, ways)[0], make(mtf, ways)
		for i := range ref {
			ref[i] = i
		}
		if err := sameAsMTF(o, ref); err != nil {
			t.Fatalf("%d ways, untouched: %v", ways, err)
		}
		for i := 0; i < 2000; i++ {
			w := rng.Intn(ways)
			if i%5 == 0 { // re-touch the most recent way now and then
				w = ref[0]
			}
			o.Touch(w)
			ref.touch(w)
			if err := sameAsMTF(o, ref); err != nil {
				t.Fatalf("%d ways, touch %d of way %d: %v", ways, i, w, err)
			}
		}
	}
}

func TestNewOrdersValidation(t *testing.T) {
	for _, ways := range []int{0, -1, MaxWays + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOrders(1, %d) should panic", ways)
				}
			}()
			NewOrders(1, ways)
		}()
	}
}

func TestDecodeOrder(t *testing.T) {
	for _, tc := range []struct {
		word uint64
		ways int
		ok   bool
	}{
		{0, 1, true},
		{0x1, 1, false},
		{0x10, 2, true},
		{0x01, 2, true},
		{0x00, 2, false},
		{0x12, 2, false},
		{0x310, 2, false},
		{0xFEDCBA9876543210, 16, true},
		{0x0123456789ABCDEF, 16, true},
		{0xFEDCBA9876543211, 16, false},
		{0x0EDCBA9876543210, 16, false},
		{0xEDCBA9876543210, 15, true},
		{0xFDCBA9876543210, 15, false},
	} {
		o, err := decodeOrder(tc.word, tc.ways)
		if (err == nil) != tc.ok || isOrder(tc.word, tc.ways) != tc.ok {
			t.Errorf("decodeOrder(%#x, %d) = %#x, %v; want ok=%v", tc.word, tc.ways, uint64(o), err, tc.ok)
		}
	}
}

// FuzzOrder decodes an arbitrary word as the order of a set of 1..16
// ways: decodeOrder must accept exactly the permutations. It then
// replays the touch bytes on the decoded order (or on a fresh one) and
// on a move-to-front list, which must agree after every touch.
func FuzzOrder(f *testing.F) {
	f.Add(uint64(0xFEDCBA9876543210), uint8(15), []byte{3, 3, 15, 0, 7})
	f.Add(uint64(0x0123456789ABCDEF), uint8(15), []byte{0, 15, 8})
	f.Add(uint64(0x10), uint8(1), []byte{1, 0, 0, 1})
	f.Add(uint64(0x11), uint8(1), []byte{1})
	f.Add(uint64(0x3210), uint8(2), []byte{2, 1, 0})
	f.Add(uint64(1), uint8(0), []byte{0})
	f.Fuzz(func(t *testing.T, word uint64, w uint8, touches []byte) {
		ways := 1 + int(w)%MaxWays
		o, err := decodeOrder(word, ways)
		if want := isOrder(word, ways); (err == nil) != want {
			t.Fatalf("decodeOrder(%#x, %d): err %v, permutation %v", word, ways, err, want)
		}
		if err != nil {
			o = NewOrders(1, ways)[0]
		}
		ref := ranks(o, ways)
		if err := sameAsMTF(o, ref); err != nil {
			t.Fatal(err)
		}
		for _, b := range touches {
			v := int(b) % ways
			o.Touch(v)
			ref.touch(v)
			if err := sameAsMTF(o, ref); err != nil {
				t.Fatalf("touch of way %d: %v", v, err)
			}
		}
	})
}
