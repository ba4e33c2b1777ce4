package ledger

import (
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/par"
)

// Parallel replay verification. Recovery's cost is dominated by
// re-sealing every block (hashing + PoW check) and — when a Ring is
// given — re-verifying its ed25519 signature, ~tens of µs per block;
// decode and the structural checks around it are nanoseconds. So the
// sequential scan keeps doing everything order-sensitive (decode,
// owner/seq checks, trust-horizon bookkeeping, error positions) and
// only queues the embarrassingly parallel part here; results retire
// in queue order, so the recovered state, the RecoveryReport, and
// every error are byte-identical to a fully serial pass.

// recoverVerifier queues sealed-contract verification work
// (Params.SealBlock + optional Params.Validate) discovered by a
// sequential scan and fans it out on a pool.
type recoverVerifier struct {
	opts   RecoverOptions
	pool   *par.Pool
	blocks []*block.Block
	labels []int // scan position of each block: WAL offset or snapshot index
}

// add queues one decoded block; label is its position in the scanned
// input, used only for error formatting.
func (v *recoverVerifier) add(b *block.Block, label int) {
	v.blocks = append(v.blocks, b)
	v.labels = append(v.labels, label)
}

// run verifies every queued block on the pool (inline when the pool
// is nil or width 1) and returns the first failure in queue order,
// rendered by errf — exactly the error the serial loop would have hit
// first, since the scan stops queueing at its own first error.
// SealBlock and Validate touch only the block itself and read-only
// ring/params state, so distinct blocks verify concurrently.
func (v *recoverVerifier) run(errf func(label int, err error) error) error {
	n := len(v.blocks)
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	v.pool.RunChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := v.blocks[i]
			if err := v.opts.Params.SealBlock(b); err != nil {
				errs[i] = err
				continue
			}
			if v.opts.Ring != nil {
				if err := v.opts.Params.Validate(b, v.opts.Ring); err != nil {
					errs[i] = err
				}
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			return errf(v.labels[i], err)
		}
	}
	return nil
}
