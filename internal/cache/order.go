package cache

import (
	"fmt"
	"math/bits"

	"bump/internal/snapshot"
)

// MaxWays is the largest associativity an Order ranks: 16 ways of 4
// bits fill its 64-bit word.
const MaxWays = 16

// Order is one set's LRU recency order: the set's way indices, 4 bits
// each, the most recently used way in the low nibble and the least
// recently used one in nibble ways-1; nibbles above the set's ways are
// zero. The caches, the BuMP predictor's tables and the SMS pattern
// history table each keep one Order per set.
//
// An emptied way keeps its place in the order. Every structure fills
// an empty way by index before it consults the order, and a way's
// fill makes it the most recent, so once every way of a set is valid
// the order ranks all of them by last use.
type Order uint64

const (
	lowNibbles  = 0x1111111111111111
	highNibbles = 0x8888888888888888
	// identity is the order of an untouched 16-way set: way i in
	// nibble i.
	identity = 0xFEDCBA9876543210
)

// NewOrders returns the orders of sets untouched sets of the given
// ways: way 0 most recent, way ways-1 least. It panics unless 1 <= ways
// <= MaxWays.
func NewOrders(sets, ways int) []Order {
	if ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("cache: %d ways outside 1..%d", ways, MaxWays))
	}
	orders := make([]Order, sets)
	for i := range orders {
		orders[i] = Order(identity & waysMask(ways))
	}
	return orders
}

// waysMask covers the nibbles of a set's ways (all 64 bits for 16).
func waysMask(ways int) uint64 { return uint64(1)<<(4*uint(ways)) - 1 }

// Touch makes way w the most recently used, shifting the ways that
// were more recent down one place. w must be one of the set's ways.
func (o *Order) Touch(w int) {
	x, v := uint64(*o), uint64(w)
	// The nibble that holds w is the lowest zero nibble of d: a borrow
	// in d-lowNibbles starts only at a zero nibble, so no nibble below
	// the first true zero is flagged.
	d := x ^ v*lowNibbles
	s := uint(bits.TrailingZeros64((d-lowNibbles)&^d&highNibbles)) &^ 3
	// Nibbles 0..s/4 rotate: the ones below w's move up one, w goes to
	// nibble 0. (At s = 60 the shift is 64 and the mask all ones.)
	m := uint64(1)<<(s+4) - 1
	*o = Order(x&^m | x<<4&m | v)
}

// LRU returns the least recently used of the set's ways.
func (o Order) LRU(ways int) int { return int(uint64(o) >> (4 * uint(ways-1)) & 0xF) }

// decodeOrder validates a word read from a checkpoint as the order of
// a set of the given ways: its low ways nibbles must hold each way
// exactly once and every nibble above them must be zero, so a crafted
// checkpoint cannot name a victim outside the set.
func decodeOrder(word uint64, ways int) (Order, error) {
	if word&^waysMask(ways) != 0 {
		return 0, fmt.Errorf("recency word %#x has nibbles above its %d ways", word, ways)
	}
	var seen uint32
	for i := 0; i < ways; i++ {
		w := word >> (4 * uint(i)) & 0xF
		if w >= uint64(ways) || seen&(1<<w) != 0 {
			return 0, fmt.Errorf("recency word %#x is not an order of %d ways", word, ways)
		}
		seen |= 1 << w
	}
	return Order(word), nil
}

// SnapshotOrders writes each set's recency word.
func SnapshotOrders(w *snapshot.Writer, orders []Order) {
	for _, o := range orders {
		w.U64(uint64(o))
	}
}

// RestoreOrders reads one recency word per set of orders, refusing any
// that is not an order of the sets' ways.
func RestoreOrders(r *snapshot.Reader, orders []Order, ways int) error {
	for i := range orders {
		o, err := decodeOrder(r.U64(), ways)
		if r.Err() != nil {
			return r.Err()
		}
		if err != nil {
			return fmt.Errorf("set %d: %w", i, err)
		}
		orders[i] = o
	}
	return nil
}
