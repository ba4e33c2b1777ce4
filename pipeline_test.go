package twoldag

import "testing"

// TestWithPipelineDepthValidation pins the deprecated option's one
// remaining contract: depths below 1 are rejected.
func TestWithPipelineDepthValidation(t *testing.T) {
	if _, err := New(WithNodes(8), WithSimulator(), WithPipelineDepth(0)); err == nil {
		t.Fatal("WithPipelineDepth(0) accepted")
	}
}
