"""``repro.data`` — dataset construction substrate.

Synthetic replacement for the paper's 655K-webpage corpus (DESIGN.md §2):
topic taxonomy, website synthesizer + structure-driven crawl, rendered-page →
supervised-document conversion, word tokenization, vocabulary, GloVe
trainer and batching.
"""

from .analysis import CorpusAnalysis, analyze_corpus, informative_ratio, token_frequencies, topic_coverage
from .corpus import AttributeSpan, Corpus, Document, SplitBundle
from .embeddings import GloveModel, build_cooccurrence, train_glove
from .preprocessing import CLS_TOKEN, DIGIT_TOKEN, PAD_TOKEN, word_tokenize
from .synthesizer import (
    DatasetConfig,
    SyntheticWebsite,
    build_corpus,
    build_jasmine_corpus,
    build_swde_corpus,
    document_from_html,
    document_from_rendered,
    synthesize_serving_corpus,
)
from .taxonomy import AttributeType, DomainFamily, Topic, build_taxonomy
from .templates import WebsiteStyle, content_page_html, index_page_html, make_style, media_page_html
from .vocab import BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, Vocabulary

__all__ = [
    "CorpusAnalysis",
    "analyze_corpus",
    "informative_ratio",
    "token_frequencies",
    "topic_coverage",
    "AttributeSpan",
    "Corpus",
    "Document",
    "SplitBundle",
    "GloveModel",
    "build_cooccurrence",
    "train_glove",
    "CLS_TOKEN",
    "DIGIT_TOKEN",
    "PAD_TOKEN",
    "word_tokenize",
    "DatasetConfig",
    "SyntheticWebsite",
    "build_corpus",
    "build_jasmine_corpus",
    "build_swde_corpus",
    "document_from_html",
    "document_from_rendered",
    "synthesize_serving_corpus",
    "AttributeType",
    "DomainFamily",
    "Topic",
    "build_taxonomy",
    "WebsiteStyle",
    "content_page_html",
    "index_page_html",
    "make_style",
    "media_page_html",
    "Vocabulary",
    "UNK_TOKEN",
    "BOS_TOKEN",
    "EOS_TOKEN",
]
