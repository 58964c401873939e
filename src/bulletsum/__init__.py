"""Bullet-point summarization of earnings call transcripts.

Two-stage pipeline: an unsupervised question-driven extractive stage
(question bank -> LDA topics -> cosine retrieval -> context) feeding an
instruction-prompted abstractive stage, plus the evaluation harness
(ROUGE-1/2/L, Num-Prec).
"""

__version__ = "0.1.0"

