"""``repro.data`` — dataset construction substrate.

Synthetic replacement for the paper's 655K-webpage corpus (DESIGN.md §2):
topic taxonomy, website synthesizer + structure-driven crawl, rendered-page →
supervised-document conversion, WordPiece tokenizer, GloVe trainer,
preprocessing and batching.
"""

from .analysis import CorpusAnalysis, analyze_corpus, informative_ratio, token_frequencies, topic_coverage
from .corpus import AttributeSpan, Corpus, Document, SplitBundle
from .io import (
    document_from_dict,
    document_to_dict,
    load_corpus_jsonl,
    save_corpus_jsonl,
)
from .embeddings import GloveModel, build_cooccurrence, train_glove
from .preprocessing import (
    CLS_TOKEN,
    DIGIT_TOKEN,
    PAD_TOKEN,
    EncodedDocument,
    encode_document,
    insert_cls_tokens,
    pad_and_split,
    word_tokenize,
)
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
from .tokenizer import WordPieceTokenizer, train_wordpiece
from .vocab import BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, Vocabulary

__all__ = [
    "CorpusAnalysis",
    "analyze_corpus",
    "informative_ratio",
    "token_frequencies",
    "topic_coverage",
    "save_corpus_jsonl",
    "load_corpus_jsonl",
    "document_to_dict",
    "document_from_dict",
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
    "EncodedDocument",
    "encode_document",
    "insert_cls_tokens",
    "pad_and_split",
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
    "WordPieceTokenizer",
    "train_wordpiece",
    "Vocabulary",
    "UNK_TOKEN",
    "BOS_TOKEN",
    "EOS_TOKEN",
]
