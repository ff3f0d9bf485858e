"""maskaug: label-conditional masked-LM text augmentation, from scratch.

A small bidirectional transformer encoder is pretrained with a masked-LM
objective, fine-tuned into a label-conditional masked LM by reusing its
condition-embedding slot for class labels, and then used to grow labeled
text-classification datasets (and to rewrite sentences under the opposite
label). Downstream CNN/LSTM classifiers measure the benefit. Everything
runs on an in-package float64 autodiff kernel over numpy.
"""

__version__ = "0.1.0"
